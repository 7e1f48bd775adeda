package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.SplitMix.mix
import repro.graphs.GraphOps
import scala.collection.mutable.ArrayBuffer
import scala.reflect.ClassTag

/** Distributed implementation of the paper's GD algorithm on partition-local
  * CSR blocks, the vertex-cut routing layout of GraphX (Gonzalez et al.,
  * OSDI'14).
  *
  * Each call hash-partitions the symmetrized edge list by source into
  * `spark.sql.shuffle.partitions` blocks, once. A block holds its sorted
  * vertex ids, their d weight rows and a CSR adjacency over global neighbour
  * ids (see [[Block]]). Per-vertex state (`x`, `fixed`, and the previous `x`
  * and `fixed`) stays aligned with the blocks through `zipPartitions`, so a
  * GD iteration is one Spark job:
  *
  *  1. every block sums `z` over its edges into one message batch per
  *     destination block (the map-side combine) and the shuffle delivers
  *     the batches, whose sums make `grad = A·z` — the `O(|E|/m)` mat-vec of
  *     Theorem 1.1;
  *  2. one reduction returns, over free vertices, `‖grad‖²`,
  *     `S_j = ⟨w_j, z⟩`, `T_j = ⟨w_j, grad⟩` and the Gram matrix
  *     `G_{jl} = ⟨w_j, w_l⟩`, over fixed vertices `F_j = ⟨w_j, x⟩`, and the
  *     previous step's squared length and free count. γ is first used after
  *     this pass, so adapting it from the previous step here leaves its
  *     sequence as if the step length were measured right after the step;
  *  3. the "one-shot alternating" projection (the paper's default for
  *     distributed runs, §3.1) is a closed-form driver-side solve for the
  *     plane coefficients `α_1..α_d`, and the x-update is a lazy narrow map
  *     that the next job runs.
  *
  * Why RDDs: a DataFrame loop ran about ten jobs per iteration. Even with
  * the state co-partitioned with the edges and one checkpoint fewer, it ran
  * 141 jobs and 0.40 s per iteration for 20 iterations on FB-lite-13
  * (4 cores), because adaptive query execution coalesces the shuffle behind
  * each checkpoint to one partition: the checkpointed state loses its hash
  * partitioning and is shuffled twice more per iteration.
  *
  * Why the shuffled values are small case classes: Spark serializes a
  * shuffle with Kryo when its key and value are both primitive types or
  * arrays of them, and Kryo fails on Java 17 unless the JVM is started with
  * `--add-opens`. A case class value keeps the shuffle on the Java
  * serializer.
  *
  * Noise and rounding draws are deterministic functions of `(seed, id)` so
  * runs are reproducible across partitionings of the data.
  */
object DistGD {

  /** Result of a distributed run.
    *
    * @param assign      (id, part) assignment, part ∈ {0, 1}
    * @param locality    fraction of uncut edges
    * @param imbalances  per-dimension |Σ w_j s| / W_j of the rounded solution
    * @param iterations  GD iterations actually executed
    */
  final case class Result(assign: DataFrame, locality: Double,
                          imbalances: Array[Double], iterations: Int)

  /** The vertices hashed to one block, sorted by id, with weight rows
    * `w(j)(i)`. Vertex `i`'s edges are `offsets(i) until offsets(i + 1)`;
    * edge `e` adds into message slot `slot(e)`. Slots hold the distinct
    * neighbour ids `slotIds`, grouped by destination block (block q owns
    * `slotStart(q) until slotStart(q + 1)`) and sorted within a group.
    */
  private final case class Block(ids: Array[Long], w: Array[Array[Double]],
                                 offsets: Array[Int], slot: Array[Int],
                                 slotIds: Array[Long], slotStart: Array[Int])

  /** Symmetrized edges (src, dst) bound for the block owning `src`. */
  private final case class Edges(src: Array[Long], dst: Array[Long])

  /** Sums of `z` over the neighbours of `ids`, from block `from`. */
  private final case class Messages(from: Int, ids: Array[Long], sums: Array[Double])

  /** Per-vertex state of one block, aligned with its ids. */
  private final case class State(x: Array[Double], fixed: Array[Boolean],
                                 xPrev: Array[Double], fixedPrev: Array[Boolean])

  /** One iteration of a block: its state, the point `z` and `grad = A·z`. */
  private final case class Step(s: State, z: Array[Double], grad: Array[Double])

  /** Deterministic standard normal from (seed, id). */
  private def gauss(seed: Long, id: Long): Double =
    new java.util.Random(mix(seed, id)).nextGaussian()

  /** Deterministic uniform [0,1) from (seed, id). */
  private def unif(seed: Long, id: Long): Double =
    new java.util.Random(mix(seed, id)).nextDouble()

  private def clip(v: Double): Double = math.min(1.0, math.max(-1.0, v))

  /** Balanced 2-partition of the canonical edge list under the named weight
    * specs (see [[Weights]]). Only the one-shot alternating projection is
    * supported distributed — matching the paper's large-scale configuration;
    * the other projection methods are evaluated in-core by [[LocalGD]].
    */
  def bipartition(spark: SparkSession, edges: DataFrame, specs: Seq[String],
                  cfg: GDConfig): Result = {
    require(cfg.projection == ProjectionMethod.OneShot,
      "DistGD implements the paper's distributed default (one-shot alternating)")
    val d = specs.length
    val weightOf = specs.map(Weights.ofDegree)
    val part = new HashPartitioner(spark.conf.get("spark.sql.shuffle.partitions").toInt)
    val blocks = buildBlocks(edges, weightOf, part).persist()

    // RDDs cached where the next job computes them, with their lineage cut
    // there; each is released once a job has computed its successor.
    val kept = ArrayBuffer.empty[RDD[_]]
    def keep[T](rdd: RDD[T]): RDD[T] = { kept += rdd; rdd.localCheckpoint() }
    def releaseAllBut(current: RDD[_]): Unit =
      kept.filterInPlace(r => (r eq current) || { r.unpersist(blocking = false); false })
    def sumUp(parts: RDD[Array[Double]]): Array[Double] =
      parts.collect().reduce((a, b) => Array.tabulate(a.length)(i => a(i) + b(i)))

    val totals = sumUp(blocks.map(b => b.ids.length.toDouble +: b.w.map(_.sum)))
    val n = totals(0).toLong
    val W = totals.tail

    val targetLen = cfg.stepFactor * math.sqrt(n.toDouble) / cfg.iterations
    val sigma = targetLen / math.sqrt(n.toDouble)
    var gamma = -1.0

    var state: RDD[State] = blocks.map { b =>
      val m = b.ids.length
      State(new Array[Double](m), new Array[Boolean](m), new Array[Double](m), new Array[Boolean](m))
    }
    var t = 0
    var freeCount = n
    while (t < cfg.iterations && freeCount > 0) {
      val noise = if (t == 0) sigma else 0.0
      val seed = cfg.seed
      def point(b: Block, s: State): Array[Double] =
        if (noise == 0.0) s.x
        else Array.tabulate(b.ids.length)(i => s.x(i) + noise * gauss(seed, b.ids(i)))
      val messages = gather(blocks.zipPartitions(state)((bs, ss) => {
        val b = bs.next()
        sendSums(b, point(b, ss.next()))
      }), part)
      val step = keep(blocks.zipPartitions(state, messages)((bs, ss, ms) => {
        val b = bs.next(); val s = ss.next()
        Iterator(Step(s, point(b, s), gradient(b, ms)))
      }))
      val v = sumUp(blocks.zipPartitions(step)((bs, ps) => Iterator(stepStats(bs.next(), ps.next()))))
      releaseAllBut(step)

      // v = ‖grad‖², S, T, Gram (upper triangle), F, previous step², free.
      val gram = unpackGram(v, 1 + 2 * d, d)
      val g = 1 + 2 * d + d * (d + 1) / 2
      if (t > 0) {
        val actual = math.sqrt(v(g + d))
        freeCount = v(g + d + 1).toLong
        if (cfg.adaptiveStep && actual > 1e-12)
          gamma *= math.min(2.0, math.max(0.5, targetLen / actual))
      }
      state =
        if (freeCount == 0) step.map(_.s)
        else {
          if (gamma <= 0) gamma = targetLen / math.max(math.sqrt(v(0)), 1e-12)
          // Sequential plane projections in closed form: y = z + γ·grad, then
          // y ← y − α_j·w_j for each plane ⟨w_j, y⟩ = −F_j in turn.
          val g0 = gamma
          val sy = Array.tabulate(d)(j => v(1 + j) + g0 * v(1 + d + j))
          val alpha = planeCoefficients(sy, v.slice(g, g + d), gram)
          val fixing = cfg.vertexFixing
          val threshold = cfg.fixThreshold
          t += 1
          blocks.zipPartitions(step)((bs, ps) =>
            Iterator(update(bs.next(), ps.next(), g0, alpha, fixing, threshold)))
        }
    }

    // Final until-convergence alternating projection on the free vertices.
    var cur = keep(state)
    var pass = 0
    var feasible = false
    while (pass < 60 && !feasible) {
      // v = Σ w_j·x over all vertices, S over free ones, Gram over free ones.
      val v = sumUp(blocks.zipPartitions(cur)((bs, ss) => Iterator(slabStats(bs.next(), ss.next()))))
      releaseAllBut(cur)
      val tot = v.take(d)
      feasible = (0 until d).forall(j => math.abs(tot(j)) <= cfg.eps * W(j) + 1e-9 * (1 + W(j)))
      if (!feasible) {
        val s = v.slice(d, 2 * d)
        val alpha = planeCoefficients(s, Array.tabulate(d)(j => tot(j) - s(j)), unpackGram(v, 2 * d, d))
        cur = keep(blocks.zipPartitions(cur)((bs, ss) => Iterator(shift(bs.next(), ss.next(), alpha))))
      }
      pass += 1
    }

    // Randomized rounding (deterministic per (seed, id)) + driver-side repair.
    val roundSeed = cfg.seed * 31 + 7
    val sided = blocks.zipPartitions(cur)((bs, ss) => {
      val b = bs.next(); val s = ss.next()
      Iterator(Array.tabulate(b.ids.length) { i =>
        val x = s.x(i)
        if (s.fixed(i) || math.abs(x) >= 1.0 - 1e-12) { if (x >= 0) 1 else 0 }
        else if (unif(roundSeed, b.ids(i)) < (x + 1.0) / 2.0) 1
        else 0
      })
    })
    val sums = sumUp(blocks.zipPartitions(sided)((bs, ps) => {
      val b = bs.next(); val p = ps.next()
      Iterator(b.w.map(w => w.indices.foldLeft(0.0)((acc, i) => acc + w(i) * (p(i) * 2 - 1))))
    }))
    val flips = repair(blocks, cur, sided, sums, W, cfg.eps)

    import spark.implicits._
    val assign = blocks.zipPartitions(sided)((bs, ps) => {
      val b = bs.next(); val p = ps.next()
      b.ids.iterator.zip(p.iterator).map { case (id, side) => (id, if (flips(id)) 1 - side else side) }
    }).toDF("id", "part").persist()
    assign.count()
    releaseAllBut(null)
    blocks.unpersist()
    val locality = GraphOps.edgeLocality(edges, assign)
    val imb = Array.tabulate(d)(j => if (W(j) > 0) math.abs(sums(j)) / W(j) else 0.0)
    Result(assign, locality, imb, t)
  }

  /** The blocks of the symmetrized edge list, hash-partitioned by source. */
  private def buildBlocks(edges: DataFrame, weightOf: Seq[Int => Double],
                          part: HashPartitioner): RDD[Block] = {
    val m = part.numPartitions
    val batches = edges.select(col("src").cast("long"), col("dst").cast("long")).rdd
      .mapPartitions { rows =>
        val src = Array.fill(m)(Array.newBuilder[Long])
        val dst = Array.fill(m)(Array.newBuilder[Long])
        rows.foreach { r =>
          val u = r.getLong(0); val v = r.getLong(1)
          val p = part.getPartition(u); src(p) += u; dst(p) += v
          val q = part.getPartition(v); src(q) += v; dst(q) += u
        }
        Iterator.tabulate(m)(q => q -> Edges(src(q).result(), dst(q).result())).filter(_._2.src.nonEmpty)
      }
    gather(batches, part).mapPartitions(it => Iterator(block(it.toSeq, weightOf, part)))
  }

  /** The values sent to each block, in partition `key`. The map-side
    * combine makes Spark write one shuffle file per map task; a plain
    * `partitionBy` writes one per (map task, block) pair, which took
    * 1.1 s instead of 0.33 s for 64 × 64 one-value messages (4 cores).
    */
  private def gather[V: ClassTag](sent: RDD[(Int, V)], part: HashPartitioner): RDD[V] =
    sent.combineByKey[List[V]]((v: V) => List(v), (l: List[V], v: V) => v :: l,
      (a: List[V], b: List[V]) => a ::: b, part).flatMap(_._2)

  private def block(batches: Seq[Edges], weightOf: Seq[Int => Double], part: HashPartitioner): Block = {
    val src = Array.concat(batches.map(_.src): _*)
    val dst = Array.concat(batches.map(_.dst): _*)
    val ids = distinctSorted(src)
    val local = src.map(java.util.Arrays.binarySearch(ids, _))
    val offsets = new Array[Int](ids.length + 1)
    local.foreach(i => offsets(i + 1) += 1)
    for (i <- ids.indices) offsets(i + 1) += offsets(i)

    // Slots: the distinct neighbours, stably regrouped by destination block.
    val nbrs = distinctSorted(dst)
    val slotStart = new Array[Int](part.numPartitions + 1)
    nbrs.foreach(v => slotStart(part.getPartition(v) + 1) += 1)
    for (q <- 0 until part.numPartitions) slotStart(q + 1) += slotStart(q)
    val next = slotStart.clone()
    val slotIds = new Array[Long](nbrs.length)
    val slotOf = nbrs.map { v =>
      val q = part.getPartition(v)
      val k = next(q); next(q) += 1
      slotIds(k) = v
      k
    }
    val fill = offsets.clone()
    val slot = new Array[Int](dst.length)
    for (e <- dst.indices) {
      val i = local(e)
      slot(fill(i)) = slotOf(java.util.Arrays.binarySearch(nbrs, dst(e)))
      fill(i) += 1
    }
    val w = weightOf.map(f => Array.tabulate(ids.length)(i => f(offsets(i + 1) - offsets(i)))).toArray
    Block(ids, w, offsets, slot, slotIds, slotStart)
  }

  private def distinctSorted(a: Array[Long]): Array[Long] = {
    val s = a.clone()
    java.util.Arrays.sort(s)
    var k = 0
    for (i <- s.indices) if (i == 0 || s(i) != s(i - 1)) { s(k) = s(i); k += 1 }
    java.util.Arrays.copyOf(s, k)
  }

  /** Map side of the mat-vec: one batch of neighbour sums of `z` per
    * destination block that has neighbours here.
    */
  private def sendSums(b: Block, z: Array[Double]): Iterator[(Int, Messages)] = {
    val acc = new Array[Double](b.slotIds.length)
    for (i <- b.ids.indices) {
      val zi = z(i)
      var e = b.offsets(i)
      while (e < b.offsets(i + 1)) { acc(b.slot(e)) += zi; e += 1 }
    }
    val from = org.apache.spark.TaskContext.getPartitionId()
    (0 until b.slotStart.length - 1).iterator
      .filter(q => b.slotStart(q) < b.slotStart(q + 1))
      .map { q =>
        val (lo, hi) = (b.slotStart(q), b.slotStart(q + 1))
        q -> Messages(from, b.slotIds.slice(lo, hi), acc.slice(lo, hi))
      }
  }

  /** Reduce side of the mat-vec: `grad = A·z` on the block's vertices,
    * added up in source-block order so that runs repeat bit for bit.
    */
  private def gradient(b: Block, batches: Iterator[Messages]): Array[Double] = {
    val grad = new Array[Double](b.ids.length)
    for (m <- batches.toSeq.sortBy(_.from); k <- m.ids.indices)
      grad(java.util.Arrays.binarySearch(b.ids, m.ids(k))) += m.sums(k)
    grad
  }

  /** ‖grad‖², S, T, Gram upper triangle (free), F (fixed), then the squared
    * length and free count of the step that produced this state.
    */
  private def stepStats(b: Block, p: Step): Array[Double] = {
    val d = b.w.length
    val g = 1 + 2 * d + d * (d + 1) / 2
    val v = new Array[Double](g + d + 2)
    val s = p.s
    for (i <- b.ids.indices) {
      if (!s.fixed(i)) {
        v(0) += p.grad(i) * p.grad(i)
        var k = 1 + 2 * d
        for (j <- 0 until d) {
          v(1 + j) += b.w(j)(i) * p.z(i)
          v(1 + d + j) += b.w(j)(i) * p.grad(i)
          for (l <- j until d) { v(k) += b.w(j)(i) * b.w(l)(i); k += 1 }
        }
        v(g + d + 1) += 1
      } else {
        for (j <- 0 until d) v(g + j) += b.w(j)(i) * s.x(i)
      }
      if (!s.fixedPrev(i)) { val dx = s.x(i) - s.xPrev(i); v(g + d) += dx * dx }
    }
    v
  }

  /** Σ w_j·x over all vertices, S over free vertices, Gram over free vertices. */
  private def slabStats(b: Block, s: State): Array[Double] = {
    val d = b.w.length
    val v = new Array[Double](2 * d + d * (d + 1) / 2)
    for (i <- b.ids.indices) {
      var k = 2 * d
      for (j <- 0 until d) {
        v(j) += b.w(j)(i) * s.x(i)
        if (!s.fixed(i)) {
          v(d + j) += b.w(j)(i) * s.x(i)
          for (l <- j until d) { v(k) += b.w(j)(i) * b.w(l)(i); k += 1 }
        }
      }
    }
    v
  }

  /** The symmetric d×d Gram matrix from its upper triangle at `v(from)`. */
  private def unpackGram(v: Array[Double], from: Int, d: Int): Array[Array[Double]] = {
    val gram = Array.ofDim[Double](d, d)
    var k = from
    for (j <- 0 until d; l <- j until d) { gram(j)(l) = v(k); gram(l)(j) = v(k); k += 1 }
    gram
  }

  /** Coefficients of the sequential plane projections y ← y − α_j·w_j onto
    * ⟨w_j, y⟩ = −F_j, given `sy(j) = ⟨w_j, y⟩` over free vertices.
    */
  private def planeCoefficients(sy: Array[Double], f: Array[Double],
                                gram: Array[Array[Double]]): Array[Double] = {
    val d = sy.length
    val y = sy.clone()
    val alpha = new Array[Double](d)
    for (j <- 0 until d) {
      alpha(j) = if (gram(j)(j) > 0) (y(j) + f(j)) / gram(j)(j) else 0.0
      for (l <- j + 1 until d) y(l) -= alpha(j) * gram(j)(l)
    }
    alpha
  }

  /** Σ_j α_j·w_j(i). */
  private def planeShift(b: Block, alpha: Array[Double], i: Int): Double = {
    var shift = alpha(0) * b.w(0)(i)
    for (j <- 1 until alpha.length) shift += alpha(j) * b.w(j)(i)
    shift
  }

  /** The gradient step, plane shift, box clip and vertex fixing of one block. */
  private def update(b: Block, p: Step, gamma: Double, alpha: Array[Double],
                     fixing: Boolean, threshold: Double): State = {
    val s = p.s
    val x = new Array[Double](b.ids.length)
    val fixed = new Array[Boolean](b.ids.length)
    for (i <- b.ids.indices) {
      if (s.fixed(i)) { x(i) = s.x(i); fixed(i) = true }
      else {
        val xi = clip(p.z(i) + gamma * p.grad(i) - planeShift(b, alpha, i))
        if (fixing && math.abs(xi) >= threshold) { fixed(i) = true; x(i) = if (xi >= 0) 1.0 else -1.0 }
        else x(i) = xi
      }
    }
    State(x, fixed, s.x, s.fixed)
  }

  /** One alternating-projection pass over the free vertices of a block. */
  private def shift(b: Block, s: State, alpha: Array[Double]): State =
    s.copy(x = Array.tabulate(b.ids.length)(i =>
      if (s.fixed(i)) s.x(i) else clip(s.x(i) - planeShift(b, alpha, i))))

  /** Bounded driver-side balance repair: if a dimension is outside ε, pull
    * the least-confident vertices of the heavy side to the driver and flip
    * greedily (mirror of [[Rounding.repair]]). Updates the per-dimension
    * sums `s` in place and returns the ids to flip.
    */
  private def repair(blocks: RDD[Block], state: RDD[State], sided: RDD[Array[Int]],
                     s: Array[Double], W: Array[Double], eps: Double): Set[Long] = {
    val d = s.length
    def violated = (0 until d).exists(j => math.abs(s(j)) > eps * W(j))
    if (!violated) return Set.empty

    val jWorst = (0 until d).maxBy(j => if (W(j) > 0) math.abs(s(j)) / W(j) - eps else 0.0)
    val heavy = if (s(jWorst) > 0) 1 else 0
    // Least confident first; ties in |x| go to the smaller id.
    val cand = blocks.zipPartitions(state, sided)((bs, ss, ps) => {
      val b = bs.next(); val st = ss.next(); val p = ps.next()
      b.ids.indices.iterator.filter(p(_) == heavy)
        .map(i => (math.abs(st.x(i)), b.ids(i), b.w.map(_(i))))
    }).takeOrdered(50000)(Ordering.by[(Double, Long, Array[Double]), (Double, Long)](c => (c._1, c._2))(
      Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.Long)))
    val flips = Set.newBuilder[Long]
    val sign = 2 * heavy - 1
    var i = 0
    while (i < cand.length && violated) {
      val (_, id, ws) = cand(i)
      var before = 0.0; var after = 0.0
      for (j <- 0 until d) {
        before = math.max(before, math.abs(s(j)) - eps * W(j))
        after = math.max(after, math.abs(s(j) - 2.0 * sign * ws(j)) - eps * W(j))
      }
      if (after < before) {
        for (j <- 0 until d) s(j) -= 2.0 * sign * ws(j)
        flips += id
      }
      i += 1
    }
    flips.result()
  }

  /** Recursive k-way distributed partitioning (k a power of two): filter the
    * edge list per part and bipartition each side. Intended for modest k —
    * used by the integration tests; the quality sweeps use the in-core path.
    */
  def partitionK(spark: SparkSession, edges: DataFrame, specs: Seq[String],
                 k: Int, cfg: GDConfig): DataFrame = {
    require(k >= 1 && (k & (k - 1)) == 0, s"k must be a power of two, got $k")
    var assign = GraphOps.vertexIds(edges).withColumn("part", lit(0)).persist()
    assign.count()
    var parts = 1
    var level = 0
    while (parts < k) {
      val pieces = (0 until parts).map { p =>
        val ids = assign.where(col("part") === p).select(col("id") as "pid")
        val subEdges = edges
          .join(ids, col("src") === col("pid")).drop("pid")
          .join(ids.select(col("pid") as "pid2"), col("dst") === col("pid2")).drop("pid2")
        val subIds = ids.select(col("pid") as "id")
        if (subEdges.isEmpty) {
          subIds.withColumn("part", lit(2 * p))
        } else {
          val res = bipartition(spark, subEdges, specs, cfg.copy(seed = cfg.seed + 97 * level + p))
          // Vertices isolated inside the piece carry no weight; send to side 0.
          subIds.join(res.assign.select(col("id"), col("part") as "side"), Seq("id"), "left")
            .na.fill(0, Seq("side"))
            .select(col("id"), (lit(2 * p) + col("side")) as "part")
        }
      }
      val merged = pieces.reduce(_ unionByName _).persist()
      merged.count()
      assign.unpersist()
      assign = merged
      parts *= 2
      level += 1
    }
    assign
  }
}
