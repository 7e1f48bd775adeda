package repro.partbench

import repro.core.{GDConfig, LocalGD, Projections, Rounding, Weights}
import repro.graphs.LocalGraph

/** Per-layer metrics: the benchmark's own timed calls into each module's
  * public functions, on the workload's inputs. Layer names are the
  * repository's packages; README.md maps each metric to the end-to-end
  * metric and workload it should move.
  */
object Layers {
  type Metric = (String, (Double, String))

  /** Median seconds of `reps` calls of `f`, after one untimed call. */
  def time(reps: Int)(f: => Any): Double = {
    f
    Stats.median((1 to reps).map { _ =>
      val t0 = System.nanoTime()
      f
      (System.nanoTime() - t0) / 1e9
    })
  }

  /** `graphs.*`: generation, CSR build, the induced subgraphs on both sides
    * of the result's first split (parts below k/2 against the rest), and
    * scoring the result's locality.
    */
  def graphs(gen: () => Any, g: LocalGraph, assign: Array[Int], k: Int): Seq[Metric] = {
    val edges = g.edges
    val side0 = assign.map(_ < k / 2)
    val side1 = side0.map(!_)
    Seq(
      "graphs.gen_s" -> (time(3)(gen()), "s"),
      "graphs.csr_build_s" -> (time(3)(LocalGraph.fromEdges(g.n, edges)), "s"),
      "graphs.induced_s" -> (time(3) { g.inducedSubgraph(side0); g.inducedSubgraph(side1) }, "s"),
      "graphs.locality_s" -> (time(20)(g.edgeLocality(assign)), "s"),
    )
  }

  /** The call's iterate after `t` of its iterations, before the final
    * projection. The step length is factor·√n / iterations, so a run capped
    * at `t` iterations with the factor scaled by t / iterations takes the
    * same steps, up to the last bit of the step length (moving that bit
    * either way left every free set on these workloads unchanged); a
    * final-projection budget of 0 leaves its iterate as is.
    */
  def iterate(g: LocalGraph, ws: Array[Array[Double]], cfg: GDConfig, t: Int): Array[Double] =
    if (t == 0) new Array[Double](g.n)
    else LocalGD.bipartition(g, ws, cfg.copy(iterations = t, stepFactor = cfg.stepFactor * t / cfg.iterations,
      finalProjIters = 0)).x

  /** Vertices the loop still moves in `x`: with vertex fixing, fixed ones sit at exactly ±1. */
  def free(x: Array[Double], cfg: GDConfig): Array[Int] =
    if (cfg.vertexFixing) x.indices.filter(i => math.abs(x(i)) < 1.0).toArray else x.indices.toArray

  /** `core.*`: one `LocalGD.bipartition` of `g` under `cfg`, and its parts
    * timed on their own on inputs like the call's. Iteration t projects
    * only the free vertices of the iterate after t iterations; their counts
    * are taken from [[iterate]] at every tenth of the iterations and
    * interpolated in between. The final projection starts from the free
    * coordinates of the last iterate. The loop's own work (copies,
    * free-index arrays, fixed-vertex rescans) is what the parts leave over:
    * `core.bisect_self_s`.
    */
  def core(g: LocalGraph, ws: Array[Array[Double]], cfg: GDConfig, specs: Seq[String]): Seq[Metric] = {
    val res = LocalGD.bipartition(g, ws, cfg)
    val bisectS = time(3)(LocalGD.bipartition(g, ws, cfg))
    val iterations = LocalGD.bipartition(g, ws, cfg.copy(trace = true)).trace.size
    val matvecS = time(50)(LocalGD.matvec(g, res.x))

    val step = math.max(1, iterations / 10)
    val sampled = ((0 until iterations by step) :+ iterations).distinct
    val freeAt = sampled.map(t => t -> free(iterate(g, ws, cfg, t), cfg).length.toDouble).toMap
    def freeCount(t: Int): Double = {
      val lo = t / step * step
      val hi = math.min(lo + step, iterations)
      if (hi == lo) freeAt(lo) else freeAt(lo) + (freeAt(hi) - freeAt(lo)) * (t - lo) / (hi - lo)
    }
    val meanFree = (0 until iterations).map(freeCount).sum / math.max(iterations, 1)
    // oneShotAlternating is one pass over its vector per plane and one for
    // the cube, so its time is linear in the free-vertex count.
    val fullProjectS = time(50)(Projections.oneShotAlternating(res.x, ws, new Array[Double](ws.length)))
    val projectS = fullProjectS * meanFree / g.n

    val last = iterate(g, ws, cfg, iterations)
    val lastFree = free(last, cfg)
    val finalS = if (lastFree.isEmpty) 0.0 else {
      // The slabs shifted by the fixed vertices' weight, as the call computes them.
      val isFree = new Array[Boolean](g.n)
      lastFree.foreach(isFree(_) = true)
      val W = ws.map(_.sum)
      val fixedSum = ws.map(w => w.indices.filterNot(isFree).map(i => w(i) * last(i)).sum)
      time(3)(Projections.alternating(lastFree.map(last), ws.map(w => lastFree.map(w)),
        W.indices.map(j => -cfg.eps * W(j) - fixedSum(j)).toArray,
        W.indices.map(j => cfg.eps * W(j) - fixedSum(j)).toArray, maxIter = cfg.finalProjIters))
    }

    // Repair of the sign rounding of x.
    val signSide = res.x.map(v => if (v >= 0) 1 else 0)
    var flips = 0
    val repairS = time(3) {
      val s = signSide.clone()
      Rounding.repair(s, res.x, ws, cfg.eps)
      flips = s.indices.count(i => s(i) != signSide(i))
    }
    val localityS = time(20)(g.edgeLocality(res.side))
    Seq(
      "core.weights_s" -> (time(3)(Weights.localAll(g, specs)), "s"),
      "core.bisect_s" -> (bisectS, "s"),
      "core.iterations" -> (iterations.toDouble, "count"),
      "core.matvec_s" -> (matvecS, "s"),
      "core.matvec_share" -> (iterations * matvecS / bisectS, "ratio"),
      "core.project_s" -> (projectS, "s"),
      "core.free_frac" -> (meanFree / g.n, "fraction"),
      "core.final_project_s" -> (finalS, "s"),
      "core.repair_s" -> (repairS, "s"),
      "core.repair_flips" -> (flips.toDouble, "count"),
      "core.bisect_self_s" ->
        (bisectS - iterations * (matvecS + projectS) - finalS - repairS - localityS, "s"),
    )
  }

  /** `dist.*` and `spark.*` on an in-core workload: no distributed work, so zero. */
  def noSpark: Seq[Metric] = Seq(
    "dist.iterations" -> (0.0, "count"),
    "dist.iter_s" -> (0.0, "s"),
    "dist.locality_gap" -> (0.0, "fraction"),
  ) ++ new SparkCounters().metrics(0, 1, 1)
}
