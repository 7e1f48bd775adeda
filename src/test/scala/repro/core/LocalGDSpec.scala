package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graphs.{GraphGen, GraphOps, TestGraphs}

/** Behaviour of the reference GD implementation (Algorithm 1 + §3.2). */
class LocalGDSpec extends AnyFunSuite {

  private def wsFor(g: repro.graphs.LocalGraph, specs: Seq[String]) =
    Weights.localAll(g, specs)

  test("two cliques with a bridge: GD recovers the clique split") {
    val g = TestGraphs.twoCliquesBridge(20)
    val res = LocalGD.bipartition(g, wsFor(g, Seq(Weights.Unit)), GDConfig(eps = 0.05, seed = 1))
    // exactly one edge (the bridge) may be cut
    assert(res.locality >= (g.numEdges - 1).toDouble / g.numEdges)
    // sides are the cliques
    val side0 = (0 until 20).map(res.side).toSet
    val side1 = (20 until 40).map(res.side).toSet
    assert(side0.size == 1 && side1.size == 1 && side0 != side1)
  }

  // Randomized GD lands in a weaker basin for some noise draws (the paper's
  // algorithm has the same property); require every seed to beat hash
  // soundly and most seeds to recover the planted cut almost exactly.
  private lazy val plantedRuns: Seq[Double] = {
    val g = TestGraphs.plantedBisection(100, 0.15, 0.01, seed = 11)
    (1L to 4L).map { seed =>
      LocalGD.bipartition(g, wsFor(g, Seq(Weights.Unit, Weights.Degree)),
        GDConfig(eps = 0.05, seed = seed)).locality
    }
  }

  for (i <- 0 until 4) {
    test(s"planted bisection: seed ${i + 1} beats hash soundly") {
      assert(plantedRuns(i) > 0.65, s"locality ${plantedRuns(i)}")
    }
  }

  test("planted bisection: the typical seed recovers the planted cut") {
    assert(plantedRuns.max > 0.88, s"best locality ${plantedRuns.max}")
    assert(plantedRuns.sorted.apply(2) > 0.85, s"runs $plantedRuns")
  }

  for (d <- 1 to 4) {
    test(s"balance holds for d=$d dimensions on an RMAT graph") {
      val g = GraphGen.rmatLocal(10, 8, seed = 77)
      val specs = Weights.All.take(d)
      val res = LocalGD.bipartition(g, wsFor(g, specs), GDConfig(eps = 0.03, seed = 5))
      res.imbalances.zip(specs).foreach { case (imb, s) =>
        assert(imb <= 0.03 + 0.02, s"dimension $s imbalance $imb exceeds eps+slack")
      }
    }
  }

  for (eps <- Seq(0.01, 0.05, 0.1)) {
    test(s"balance tracks the requested eps=$eps") {
      val g = GraphGen.rmatLocal(10, 8, seed = 78)
      val res = LocalGD.bipartition(g, wsFor(g, Seq(Weights.Unit, Weights.Degree)),
        GDConfig(eps = eps, seed = 5))
      assert(res.imbalances.max <= eps + 0.02)
    }
  }

  test("larger eps yields at least comparable locality (more freedom)") {
    val g = GraphGen.rmatLocal(10, 8, seed = 79)
    val ws = wsFor(g, Seq(Weights.Unit, Weights.Degree))
    val tight = LocalGD.bipartition(g, ws, GDConfig(eps = 0.005, seed = 5)).locality
    val loose = LocalGD.bipartition(g, ws, GDConfig(eps = 0.2, seed = 5)).locality
    assert(loose >= tight - 0.05)
  }

  test("deterministic: same seed gives the same partition") {
    val g = GraphGen.rmatLocal(9, 6, seed = 80)
    val ws = wsFor(g, Seq(Weights.Unit))
    val a = LocalGD.bipartition(g, ws, GDConfig(seed = 9)).side
    val b = LocalGD.bipartition(g, ws, GDConfig(seed = 9)).side
    assert(a.toSeq == b.toSeq)
  }

  test("different seeds explore different solutions (noise matters)") {
    val g = GraphGen.rmatLocal(9, 6, seed = 80)
    val ws = wsFor(g, Seq(Weights.Unit))
    val a = LocalGD.bipartition(g, ws, GDConfig(seed = 9)).side
    val b = LocalGD.bipartition(g, ws, GDConfig(seed = 10)).side
    assert(a.toSeq != b.toSeq)
  }

  for (method <- Seq[ProjectionMethod](ProjectionMethod.OneShot, ProjectionMethod.Exact)) {
    test(s"projection method $method produces a balanced, better-than-hash cut") {
      val g = TestGraphs.plantedBisection(60, 0.2, 0.02, seed = 12)
      val res = LocalGD.bipartition(g, wsFor(g, Seq(Weights.Unit, Weights.Degree)),
        GDConfig(eps = 0.05, projection = method, seed = 5))
      assert(res.imbalances.max <= 0.05 + 0.03, s"imb ${res.imbalances.toSeq}")
      val hash = repro.baselines.HashPartition.partition(g.n, 2)
      assert(res.locality > g.edgeLocality(hash))
    }
  }

  test("exact projection at d=4 returns x inside every slab") {
    // No fixing and no final projection, so x is the last in-loop exact projection.
    val g = GraphGen.rmatLocal(8, 4)
    val ws = wsFor(g, Weights.All.take(4))
    val cfg = GDConfig(projection = ProjectionMethod.Exact, vertexFixing = false, finalProjIters = 0)
    val res = LocalGD.bipartition(g, ws, cfg)
    ws.foreach { w =>
      val bound = cfg.eps * w.sum + 1e-6 * (1 + w.sum)
      assert(math.abs(Projections.dot(w, res.x)) <= bound, s"slab ${Projections.dot(w, res.x)} vs $bound")
    }
  }

  test("trace records one row per iteration with sane values") {
    val g = GraphGen.rmatLocal(8, 4, seed = 81)
    val cfg = GDConfig(iterations = 20, trace = true, seed = 5)
    val res = LocalGD.bipartition(g, wsFor(g, Seq(Weights.Unit)), cfg)
    assert(res.trace.nonEmpty && res.trace.length <= 20)
    res.trace.foreach { r =>
      assert(r.locality >= 0 && r.locality <= 1)
      assert(r.maxImbalance >= 0 && r.maxImbalance <= 1)
    }
  }

  test("vertex fixing freezes vertices and preserves balance (Figure 9 claim)") {
    val g = GraphGen.liveJournalLiteLocal()
    val ws = wsFor(g, Seq(Weights.Unit, Weights.Degree))
    val withFix = LocalGD.bipartition(g, ws, GDConfig(eps = 0.03, vertexFixing = true, seed = 5))
    assert(withFix.imbalances.max <= 0.05)
    assert(withFix.locality > 0.5)
  }

  test("star graph: balance on degree forces the hub to be nearly alone") {
    val g = TestGraphs.star(101) // hub degree 100, leaves degree 1; W_deg = 200
    val res = LocalGD.bipartition(g, wsFor(g, Seq(Weights.Degree)), GDConfig(eps = 0.1, seed = 5))
    // hub side has deg weight >= 100 of total 200: balance means leaves split
    assert(res.imbalances.max <= 0.1 + 0.05)
  }

  test("empty-ish graph (no edges among n vertices) still terminates balanced") {
    val g = repro.graphs.LocalGraph.fromEdges(50, Array.empty)
    val res = LocalGD.bipartition(g, wsFor(g, Seq(Weights.Unit)), GDConfig(eps = 0.05, seed = 5))
    assert(GraphOps.imbalanceLocal(res.side, Array.fill(50)(1.0), 2) <= 0.1)
  }

  test("path graph bipartition cuts few edges") {
    val g = TestGraphs.path(200)
    val res = LocalGD.bipartition(g, wsFor(g, Seq(Weights.Unit)), GDConfig(eps = 0.05, seed = 5))
    assert(res.locality >= 0.9, s"path locality ${res.locality}")
  }

  test("objective relation: locality equals uncut/total") {
    val g = GraphGen.rmatLocal(8, 4, seed = 82)
    val res = LocalGD.bipartition(g, wsFor(g, Seq(Weights.Unit)), GDConfig(seed = 5))
    assert(math.abs(res.locality - g.uncutEdges(res.side).toDouble / g.numEdges) < 1e-12)
  }

  test("x is always inside the box at termination") {
    val g = GraphGen.rmatLocal(8, 4, seed = 83)
    val res = LocalGD.bipartition(g, wsFor(g, Seq(Weights.Unit, Weights.Degree)), GDConfig(seed = 5))
    assert(res.x.forall(v => v >= -1.0 - 1e-9 && v <= 1.0 + 1e-9))
  }

  test("non-adaptive step still yields a valid partition") {
    val g = GraphGen.rmatLocal(9, 6, seed = 84)
    val res = LocalGD.bipartition(g, wsFor(g, Seq(Weights.Unit)),
      GDConfig(adaptiveStep = false, vertexFixing = false, seed = 5))
    assert(res.side.forall(s => s == 0 || s == 1))
    assert(res.imbalances.max <= 0.15)
  }

  private def bits(v: Array[Double]): Seq[Long] = v.toSeq.map(java.lang.Double.doubleToRawLongBits)

  private lazy val ljLite = GraphGen.liveJournalLiteLocal()

  // A zero row adds nothing to any sum of another row, its plane
  // coefficient is 0, its slab always holds and repair never picks it.
  for ((name, graph) <- Seq[(String, () => repro.graphs.LocalGraph)](
         "LJ-lite" -> (() => ljLite), "RMAT scale 10" -> (() => GraphGen.rmatLocal(10, 8, seed = 77)));
       eps <- Seq(0.05, 0.01))
    test(s"an all-zero weight row, first or last, changes no other output bit: $name, eps=$eps") {
      val g = graph()
      val ws = wsFor(g, Seq(Weights.Unit, Weights.Degree))
      val zero = new Array[Double](g.n)
      val cfg = GDConfig(eps = eps, seed = 5)
      val base = LocalGD.bipartition(g, ws, cfg)
      val parts = RecursivePartitioner.partition(g, ws, 4, cfg)
      for ((where, withZero, at) <- Seq(("last", ws :+ zero, 2), ("first", zero +: ws, 0))) {
        val r = LocalGD.bipartition(g, withZero, cfg)
        assert(bits(r.x) == bits(base.x) && r.side.sameElements(base.side), where)
        assert(r.iterations == base.iterations && bits(Array(r.locality)) == bits(Array(base.locality)), where)
        assert(r.imbalances(at) == 0.0, where)
        assert(bits(r.imbalances.patch(at, Nil, 1)) == bits(base.imbalances), where)
        assert(RecursivePartitioner.partition(g, withZero, 4, cfg).sameElements(parts), where)
      }
    }

  /** The mat-vec as one sequential loop over the rows, in CSR order. */
  private def matvecReference(g: repro.graphs.LocalGraph, z: Array[Double]): Array[Double] =
    Array.tabulate(g.n) { u =>
      var s = 0.0
      for (i <- g.offsets(u) until g.offsets(u + 1)) s += z(g.adj(i))
      s
    }

  private lazy val rmat14 = GraphGen.rmatLocal(14, 8, seed = 85)

  for ((name, g) <- Seq(
      "RMAT scale 14" -> rmat14,
      "n = 0" -> repro.graphs.LocalGraph.fromEdges(0, Array.empty),
      "n = 1" -> repro.graphs.LocalGraph.fromEdges(1, Array.empty),
      "edgeless" -> repro.graphs.LocalGraph.fromEdges(50, Array.empty))) {
    test(s"matvec is bit-equal to a sequential loop ($name)") {
      val rng = new scala.util.Random(86)
      // Magnitudes spread over many orders, so a different summation order shows.
      val z = Array.fill(g.n)(rng.nextGaussian() * math.exp(10 * rng.nextGaussian()))
      assert(LocalGD.matvec(g, z).sameElements(matvecReference(g, z)))
    }
  }

  test("bipartition is bit-identical on 1, 2 and 4 threads (RMAT scale 14, several chunks)") {
    assert(LocalGD.chunks(rmat14).length > 2)
    val ws = wsFor(rmat14, Seq(Weights.Unit, Weights.Degree))
    val cfg = GDConfig(eps = 0.03, seed = 87)
    val one = InPool(1)(LocalGD.bipartition(rmat14, ws, cfg))
    for (threads <- Seq(2, 4)) {
      val r = InPool(threads)(LocalGD.bipartition(rmat14, ws, cfg))
      assert(one.x.sameElements(r.x), s"$threads threads")
      assert(one.side.sameElements(r.side), s"$threads threads")
      assert(one.iterations == r.iterations, s"$threads threads")
    }
  }

  test("four plain threads calling bipartition at once each get the single call's bits") {
    val ws = wsFor(rmat14, Seq(Weights.Unit, Weights.Degree))
    val cfg = GDConfig(eps = 0.03, seed = 90)
    val single = LocalGD.bipartition(rmat14, ws, cfg)
    val results = new Array[GDResult](4)
    val threads = results.indices.map(i => new Thread(() => results(i) = LocalGD.bipartition(rmat14, ws, cfg)))
    threads.foreach(_.start())
    threads.foreach(_.join())
    results.zipWithIndex.foreach { case (r, i) =>
      assert(r.x.sameElements(single.x) && r.side.sameElements(single.side), s"thread $i")
      assert(r.iterations == single.iterations && r.locality == single.locality, s"thread $i")
    }
  }

  private lazy val bounds14 = LocalGD.chunks(rmat14)

  test("the helpers of a pass take chunks too") {
    val ran = java.util.concurrent.ConcurrentHashMap.newKeySet[Thread]()
    InPool(4) {
      val team = new LocalGD.Team(bounds14)
      try team.eachChunk { (_, _, _) =>
        ran.add(Thread.currentThread)
        // A chunk waits (at most 5 s) until a second thread has taken one.
        val deadline = System.nanoTime() + 5000000000L
        while (ran.size < 2 && System.nanoTime() < deadline) Thread.onSpinWait()
      } finally team.close()
    }
    assert(ran.size >= 2)
  }

  test("a chunk that throws makes the pass throw; the next pass runs every chunk") {
    val ran = new java.util.concurrent.atomic.AtomicInteger
    InPool(4) {
      val team = new LocalGD.Team(bounds14)
      try {
        val e = intercept[IllegalStateException](team.eachChunk((c, _, _) => if (c == 3) throw new IllegalStateException("chunk 3")))
        assert(e.getMessage == "chunk 3")
        team.eachChunk((_, _, _) => ran.incrementAndGet())
      } finally team.close()
    }
    assert(ran.get == bounds14.length - 1)
    // A call whose chunks throw throws.
    intercept[ArrayIndexOutOfBoundsException](LocalGD.matvec(rmat14, new Array[Double](10)))
  }

  test("no helper is still running 1 s after a call returns") {
    val ws = wsFor(rmat14, Seq(Weights.Unit, Weights.Degree))
    val pool = new java.util.concurrent.ForkJoinPool(4)
    try {
      pool.submit(new java.util.concurrent.Callable[GDResult] {
        def call(): GDResult = LocalGD.bipartition(rmat14, ws, GDConfig(seed = 91))
      }).get()
      val deadline = System.nanoTime() + 1000000000L
      while (!pool.isQuiescent && System.nanoTime() < deadline) Thread.sleep(10)
      assert(pool.isQuiescent, s"${pool.getActiveThreadCount} threads still active")
    } finally pool.shutdown()
  }

  test("the fused pass's stats are GDKernel.stats summed chunk by chunk in chunk order") {
    val g = rmat14
    val ws = wsFor(g, Seq(Weights.Unit, Weights.Degree))
    val cfg = GDConfig(seed = 88)
    val b = new LocalGD.Chunked(g, ws, cfg)
    val ranges = b.bounds.indices.init.map(c => (b.bounds(c), b.bounds(c + 1)))
    assert(ranges.length > 1)
    /** Stats at `x` with `z` and a full sequential mat-vec, chunk sums added in order. */
    def reference(x: Array[Double], fixed: Array[Boolean], z: Array[Double], sqs: Seq[Double]): Array[Double] = {
      val grad = matvecReference(g, z)
      ranges.zip(sqs).map { case ((lo, hi), sq) =>
        val r = GDKernel.rows(ws, x, lo, hi)(fixed(_))
        r.last = sq
        GDKernel.stats(ws, z, grad, r)
      }
        .reduceLeft((p, q) => p.indices.map(k => p(k) + q(k)).toArray)
    }
    // t = 0: the noise alone, no vertex fixed.
    val noise = 0.05
    val x0 = new Array[Double](g.n)
    val fixed0 = new Array[Boolean](g.n)
    val z0 = Array.tabulate(g.n)(i => x0(i) + noise * GDKernel.gauss(cfg.seed, i))
    assert(b.stepStats(noise).sameElements(reference(x0, fixed0, z0, ranges.map(_ => 0.0))))
    // A long step fixes some vertices, so their buffered gradient goes stale.
    val (gamma, alpha) = (10.0, Array(0.0, 0.0))
    val grad0 = matvecReference(g, z0)
    val x1 = x0.clone()
    val stepped = ranges.map { case (lo, hi) =>
      val r = GDKernel.rows(ws, x1, lo, hi)(fixed0(_))
      GDKernel.step(ws, x1, r, z0, grad0, gamma, alpha, GDKernel.fixAt(cfg))
      r
    }
    // The chunks' masks in chunk order are the flags of every vertex.
    val fixed1 = stepped.flatMap(_.fixed).toArray
    b.step(gamma, alpha)
    assert(b.x.sameElements(x1) && b.rows.flatMap(_.fixed).sameElements(fixed1))
    assert(fixed1.contains(true) && fixed1.contains(false))
    assert(fixed1.indices.forall(i => !fixed1(i) || math.abs(x1(i)) == 1.0))
    assert(b.stepStats(0.0).sameElements(reference(x1, fixed1, x1, stepped.map(_.last))))
  }

  test("after every GD step each chunk's free-row list is its non-fixed rows in increasing order") {
    val ws = wsFor(rmat14, Seq(Weights.Unit, Weights.Degree))
    val cfg = GDConfig(eps = 0.03, seed = 89)
    val b = new LocalGD.Chunked(rmat14, ws, cfg)
    var steps = 0
    def check(): Unit = for (c <- b.rows.indices) {
      val (r, lo, hi) = (b.rows(c), b.bounds(c), b.bounds(c + 1))
      assert(r.fixed.length == hi - lo, s"chunk $c, step $steps")
      assert(r.free.take(r.n).toSeq == (lo until hi).filter(i => !r.fixed(i - lo)), s"chunk $c, step $steps")
      assert((lo until hi).forall(i => !r.fixed(i - lo) || math.abs(b.x(i)) == 1.0), s"chunk $c, step $steps")
    }
    check()
    val checked = new GDKernel.Blocks {
      def stepStats(noise: Double): Array[Double] = b.stepStats(noise)
      def step(gamma: Double, alpha: Array[Double]): Unit = { b.step(gamma, alpha); steps += 1; check() }
      def slabStats(): Array[Double] = b.slabStats()
      def shift(alpha: Array[Double]): Unit = b.shift(alpha)
    }
    assert(GDKernel.run(checked, rmat14.n, b.W, cfg) == steps)
    val fixed = b.rows.flatMap(_.fixed)
    assert(steps > 1 && fixed.contains(true) && fixed.contains(false))
  }
}
