package repro.core

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicInteger
import org.apache.logging.log4j.LogManager
import org.apache.logging.log4j.core.{LogEvent, Logger}
import org.apache.logging.log4j.core.appender.AbstractAppender
import org.apache.logging.log4j.core.config.Property
import org.apache.spark.ListenerBusDrain
import org.apache.spark.rdd.RDD
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart, SparkListenerStageSubmitted}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.graphs.{GraphGen, GraphOps, LocalGraph, SqlMetrics, TestGraphs}
import scala.jdk.CollectionConverters._

/** Distributed GD: balance, quality, agreement with the in-core reference,
  * the reported locality against the DataFrame oracle, and what a call
  * costs in Spark jobs, SQL executions and cached RDDs.
  */
class DistGDSpec extends SparkSpec {

  private val cfg = GDConfig(eps = 0.05, iterations = 30, seed = 5)

  test("planted bisection: balanced and far better than hash") {
    val g = TestGraphs.plantedBisection(150, 0.12, 0.01, seed = 41)
    val edges = TestGraphs.toDF(spark, g).persist()
    val res = withBlocks(4)(DistGD.bipartition(spark, edges, Seq(Weights.Unit, Weights.Degree), cfg))
    assert(res.imbalances.max <= 0.05 + 0.05, s"imbalances ${res.imbalances.toSeq}")
    assert(res.locality > 0.7, s"locality ${res.locality}")
    val hash = repro.baselines.HashPartition.partition(g.n, 2)
    assert(res.locality > g.edgeLocality(hash) + 0.2)
    edges.unpersist()
  }

  test("assignment covers every edge-incident vertex with parts {0,1}") {
    val g = GraphGen.rmatLocal(8, 4, seed = 42)
    val edges = TestGraphs.toDF(spark, g).persist()
    val res = DistGD.bipartition(spark, edges, Seq(Weights.Unit), cfg)
    val nVerts = GraphOps.vertexIds(edges).count()
    assert(res.assign.count() == nVerts)
    val parts = res.assign.select("part").distinct().collect().map(_.getInt(0)).toSet
    assert(parts.subsetOf(Set(0, 1)))
    edges.unpersist()
  }

  test("locality is comparable to the in-core reference on the same graph") {
    val g = TestGraphs.plantedBisection(100, 0.15, 0.02, seed = 43)
    val edges = TestGraphs.toDF(spark, g).persist()
    val dist = withBlocks(4)(DistGD.bipartition(spark, edges, Seq(Weights.Unit, Weights.Degree), cfg))
    val local = LocalGD.bipartition(g, Weights.localAll(g, Seq(Weights.Unit, Weights.Degree)),
      cfg.copy(iterations = 100))
    assert(dist.locality > local.locality - 0.15,
      s"dist ${dist.locality} vs local ${local.locality}")
    edges.unpersist()
  }

  // Both executors run GDKernel with the same draws, so on a graph with ids
  // 0..n−1 and no isolated vertex they take the same steps and round the
  // same way; only the order of floating-point sums differs. Four blocks
  // instead of the suite's 64 keep Spark's per-task cost down.
  private lazy val agreementGraphs = Map(
    "planted" -> TestGraphs.plantedBisection(40, 0.2, 0.03, seed = 47),
    "rmat" -> LocalGraph.fromDataFrame(TestGraphs.toDF(spark, GraphGen.rmatLocal(7, 4, seed = 48)))._1)

  for (graph <- Seq("planted", "rmat"); d <- Seq(1, 2, 4); fixing <- Seq(true, false)) {
    test(s"LocalGD and DistGD agree per vertex: $graph graph, d=$d, vertex fixing $fixing") {
      val g = agreementGraphs(graph)
      assert((0 until g.n).forall(g.degree(_) > 0), "the graph has an isolated vertex")
      val specs = Weights.All.take(d)
      val c = cfg.copy(vertexFixing = fixing)
      val local = LocalGD.bipartition(g, Weights.localAll(g, specs), c)
      val edges = TestGraphs.toDF(spark, g).persist()
      val dist = withBlocks(4)(DistGD.bipartition(spark, edges, specs, c))
      val parts = dist.assign.collect().map(r => r.getLong(0).toInt -> r.getInt(1)).toMap
      assert(dist.iterations == local.iterations)
      assert(parts.size == g.n)
      val differ = (0 until g.n).count(i => parts(i) != local.side(i))
      assert(differ == 0, s"$differ of ${g.n} vertices are on different sides")
      dist.assign.unpersist()
      edges.unpersist()
    }
  }

  // Two 20-cliques joined by one edge: every vertex is fixed within a few
  // of the 30 iterations, so the loop ends early and nothing is left for
  // the final projection to move.
  for (d <- Seq(1, 2); seed <- 1 to 3)
    test(s"every vertex fixed before the budget: both executors stop together, no shift (d=$d, seed $seed)") {
      val g = TestGraphs.twoCliquesBridge(20)
      val specs = Weights.All.take(d)
      val ws = Weights.localAll(g, specs)
      val c = cfg.copy(seed = seed)
      var shifts = 0
      val b = new LocalGD.Chunked(g, ws, c)
      val counted = new GDKernel.Blocks {
        def stepStats(noise: Double): Array[Double] = b.stepStats(noise)
        def step(gamma: Double, alpha: Array[Double]): Unit = b.step(gamma, alpha)
        def slabStats(): Array[Double] = b.slabStats()
        def shift(alpha: Array[Double]): Unit = { shifts += 1; b.shift(alpha) }
      }
      val iterations = try GDKernel.run(counted, g.n, b.W, c) finally b.close()
      assert(iterations < c.iterations && b.rows.forall(_.n == 0) && shifts == 0)

      val local = LocalGD.bipartition(g, ws, c)
      val edges = TestGraphs.toDF(spark, g).persist()
      val dist = withBlocks(4)(DistGD.bipartition(spark, edges, specs, c))
      val parts = dist.assign.collect().map(r => r.getLong(0).toInt -> r.getInt(1)).toMap
      assert(local.iterations == iterations && dist.iterations == iterations)
      assert((0 until g.n).forall(i => parts(i) == local.side(i)))
      edges.unpersist()
    }

  // The k-way recursions are one: full-graph weights, the same child seeds
  // and draws keyed by the vertex's id, so every split takes the same steps.
  private val kwaySpecs = Weights.All.take(2)
  private val kwayParts = scala.collection.mutable.Map.empty[(String, Int), (Array[Int], Array[Int])]

  /** In-core and distributed parts of every vertex of an agreement graph. */
  private def kway(graph: String, k: Int): (Array[Int], Array[Int]) = kwayParts.getOrElseUpdate((graph, k), {
    val g = agreementGraphs(graph)
    val local = RecursivePartitioner.partition(g, Weights.localAll(g, kwaySpecs), k, cfg)
    val edges = TestGraphs.toDF(spark, g).persist()
    val dist = Array.fill(g.n)(-1)
    withBlocks(4)(DistGD.partitionK(spark, edges, kwaySpecs, k, cfg)).collect()
      .foreach(r => dist(r.getLong(0).toInt) = r.getInt(1))
    edges.unpersist()
    (local, dist)
  })

  for (graph <- Seq("planted", "rmat"); k <- Seq(4, 8)) {
    test(s"RecursivePartitioner and partitionK agree per vertex: $graph graph, k=$k") {
      val g = agreementGraphs(graph)
      val (local, dist) = kway(graph, k)
      val differ = (0 until g.n).count(i => dist(i) != local(i))
      assert(differ == 0, s"$differ of ${g.n} vertices are in different parts")
      // ε compounded over the log₂k levels, on the full graph's degrees.
      val bound = math.pow(1 + cfg.eps, Integer.numberOfTrailingZeros(k)) - 1
      Weights.localAll(g, kwaySpecs).zip(kwaySpecs).foreach { case (w, spec) =>
        val imb = GraphOps.imbalanceLocal(dist, w, k)
        assert(imb <= bound, s"$spec imbalance $imb > $bound")
      }
    }
  }

  test("levels nest on both executors: the part at k=8, halved, is the part at k=4") {
    for (graph <- Seq("planted", "rmat")) {
      val (local4, dist4) = kway(graph, 4)
      val (local8, dist8) = kway(graph, 8)
      assert(local8.map(_ / 2).sameElements(local4), s"in-core, $graph graph")
      assert(dist8.map(_ / 2).sameElements(dist4), s"distributed, $graph graph")
    }
  }

  test("each GD iteration costs at most two Spark jobs") {
    val g = TestGraphs.plantedBisection(60, 0.2, 0.02, seed = 46)
    val edges = TestGraphs.toDF(spark, g).persist()
    val sc = spark.sparkContext
    // Without vertex fixing every run uses its whole iteration budget.
    def run(iterations: Int): (Int, Int) = {
      val jobs = new AtomicInteger
      val listener = new SparkListener {
        override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      }
      sc.addSparkListener(listener)
      try {
        val res = withBlocks(4)(DistGD.bipartition(spark, edges, Seq(Weights.Unit),
          cfg.copy(iterations = iterations, vertexFixing = false)))
        ListenerBusDrain(sc)
        res.assign.unpersist()
        (jobs.get, res.iterations)
      } finally sc.removeSparkListener(listener)
    }
    val (jobs10, iters10) = run(10)
    val (jobs20, iters20) = run(20)
    assert(iters10 == 10 && iters20 == 20)
    assert(jobs20 - jobs10 <= 2 * (iters20 - iters10), s"$jobs10 jobs for I = 10, $jobs20 for I = 20")
    edges.unpersist()
  }

  // The stage that computes an iteration's gradients also replays the last
  // step and returns the statistics, so the rest of a call costs the same
  // stages at any budget.
  test("each GD iteration is one Spark stage") {
    val g = TestGraphs.plantedBisection(60, 0.2, 0.02, seed = 46)
    val edges = TestGraphs.toDF(spark, g).persist()
    val sc = spark.sparkContext
    // Without vertex fixing every run uses its whole iteration budget.
    def stages(iterations: Int): Int = {
      val submitted = new AtomicInteger
      val listener = new SparkListener {
        override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = submitted.incrementAndGet()
      }
      sc.addSparkListener(listener)
      try {
        val res = withBlocks(4)(DistGD.bipartition(spark, edges, Seq(Weights.Unit),
          cfg.copy(iterations = iterations, vertexFixing = false)))
        ListenerBusDrain(sc)
        assert(res.iterations == iterations)
        res.assign.unpersist()
        submitted.get
      } finally sc.removeSparkListener(listener)
    }
    val (stages10, stages20) = (stages(10), stages(20))
    assert(stages20 - stages10 == 20 - 10, s"$stages10 stages for I = 10, $stages20 for I = 20")
    edges.unpersist()
  }

  // The blocks count every edge from both ends, so sᵀAs and the entry count
  // are exact integers and the locality is uncut/total to the last bit. It
  // holds for any assignment; five iterations keep 64 blocks cheap.
  private val short = cfg.copy(iterations = 5)
  private lazy val oracleGraphs: Map[String, () => DataFrame] = Map(
    "planted" -> (() => TestGraphs.toDF(spark, TestGraphs.plantedBisection(150, 0.12, 0.01, seed = 41))),
    "RMAT scale 8" -> (() => TestGraphs.toDF(spark, GraphGen.rmatLocal(8, 4, seed = 42))),
    "RMAT scale 8, ids 1000·i + 7" -> (() => TestGraphs.toDF(spark, GraphGen.rmatLocal(8, 4, seed = 42))
      .select((col("src") * 1000 + 7) as "src", (col("dst") * 1000 + 7) as "dst")))

  for (graph <- oracleGraphs.keys.toSeq.sorted; m <- Seq(4, 64)) {
    test(s"reported locality equals the DataFrame oracle: $graph, $m blocks") {
      val edges = oracleGraphs(graph)().persist()
      val res = withBlocks(m)(DistGD.bipartition(spark, edges, Seq(Weights.Unit, Weights.Degree), short))
      assert(res.locality == SqlMetrics.edgeLocality(edges, res.assign))
      edges.unpersist()
    }
  }

  test("empty edge list: empty assignment, no iterations, locality 1") {
    val edges = TestGraphs.toDF(spark, TestGraphs.path(10)).where(lit(false))
    val res = DistGD.bipartition(spark, edges, Seq(Weights.Unit, Weights.Degree), cfg)
    assert(res.assign.count() == 0)
    assert(res.iterations == 0)
    assert(res.locality == 1.0)
    assert(res.imbalances.forall(_ == 0.0))
  }

  /** The assignments of `bipartition` and of `partitionK` at k = 4. */
  private val calls: Seq[(String, DataFrame => DataFrame)] = Seq(
    "bipartition" -> (e => DistGD.bipartition(spark, e, Seq(Weights.Unit), short).assign),
    "partitionK k=4" -> (e => withBlocks(4)(DistGD.partitionK(spark, e, Seq(Weights.Unit), 4, short))))

  test("a call on a persisted edge list starts no Spark SQL execution") {
    val edges = TestGraphs.toDF(spark, TestGraphs.plantedBisection(60, 0.2, 0.02, seed = 46)).persist()
    edges.count()
    val sc = spark.sparkContext
    val executions = new AtomicInteger
    val listener = new SparkListener {
      override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
        case _: SparkListenerSQLExecutionStart => executions.incrementAndGet()
        case _ =>
      }
    }
    sc.addSparkListener(listener)
    try {
      for ((name, call) <- calls) {
        executions.set(0)
        val assign = call(edges)
        ListenerBusDrain(sc)
        assert(executions.get == 0, s"$name: ${executions.get} SQL executions")
        // The listener does see SQL: reading the assignment is one.
        assign.count()
        ListenerBusDrain(sc)
        assert(executions.get > 0, name)
      }
    } finally sc.removeSparkListener(listener)
    edges.unpersist()
  }

  test("a call leaves only the assignment's own data cached") {
    val edges = TestGraphs.toDF(spark, GraphGen.rmatLocal(8, 4, seed = 42)).persist()
    edges.count()
    val sc = spark.sparkContext
    for ((name, call) <- calls) {
      val before = sc.getPersistentRDDs.keySet
      val assign = call(edges)
      val added = sc.getPersistentRDDs.filter { case (id, _) => !before(id) }.values.toSeq
      assert(added.size == 1, s"$name: ${added.size} RDDs left cached")
      val cached = added.head.collect().flatMap { case (ids: Array[Long], parts: Array[Int]) => ids.zip(parts) }
      val rows = assign.collect().map(r => (r.getLong(0), r.getInt(1)))
      assert(cached.sorted.toSeq == rows.sorted.toSeq, name)
    }
    edges.unpersist()
  }

  test("releasing a call's RDDs logs no warning") {
    val edges = TestGraphs.toDF(spark, GraphGen.rmatLocal(8, 4, seed = 42)).persist()
    edges.count()
    val messages = new ConcurrentLinkedQueue[String]
    val appender = new AbstractAppender("released-rdds", null, null, true, Property.EMPTY_ARRAY) {
      override def append(e: LogEvent): Unit = messages.add(e.getMessage.getFormattedMessage)
    }
    appender.start()
    val root = LogManager.getRootLogger.asInstanceOf[Logger]
    root.addAppender(appender)
    def warnings() = messages.asScala.count(_.contains("was locally checkpointed"))
    try {
      for ((name, call) <- calls) {
        call(edges)
        assert(warnings() == 0, name)
      }
      // The appender does see the warning that `RDD.unpersist` logs.
      val rdd = spark.sparkContext.parallelize(1 to 4).localCheckpoint()
      rdd.count()
      rdd.unpersist()
      assert(warnings() == 1)
    } finally {
      root.removeAppender(appender)
      appender.stop()
    }
    edges.unpersist()
  }

  // m alone fixes the order of every sum, so the Spark partitions that the
  // 64 blocks run on change no bit of the result.
  test("64 blocks on 1, 4 and 64 tasks: the same parts, locality, imbalances and iterations") {
    val edges = TestGraphs.toDF(spark, GraphGen.rmatLocal(8, 4, seed = 42)).persist()
    for ((name, levels) <- Seq("bipartition" -> 1, "partitionK k=4" -> 2)) {
      val runs = Seq(1, 4, 64).map { tasks =>
        val res = withBlocks(64)(DistGD.recurse(spark, edges, Seq(Weights.Unit, Weights.Degree), levels, short, Some(tasks)))
        val assign = res.assign.collect().map(r => (r.getLong(0), r.getInt(1))).toSet
        (tasks, assign, res.locality, res.imbalances.toSeq, res.iterations)
      }
      val (_, assign, locality, imbalances, iterations) = runs.head
      assert(assign.map(_._2).size == 2 * levels && iterations > 0, name)
      for ((tasks, a, l, imb, it) <- runs.tail) {
        val moved = (a diff assign).size
        assert(moved == 0, s"$name, $tasks tasks: $moved vertices in other parts")
        assert(levels != 1 || l == locality, s"$name, $tasks tasks: locality $l, not $locality")
        assert(imb == imbalances, s"$name, $tasks tasks: imbalances")
        assert(it == iterations, s"$name, $tasks tasks: iterations")
      }
    }
    edges.unpersist()
  }

  // The parts above hardly depend on the last bits of a sum. These sums of
  // Gaussian terms do: A·z adds each vertex's neighbours one owner block at a
  // time, in block order, and the driver adds the block vectors in block
  // order.
  test("A·z and its block sums on 64 blocks are the same bit for bit on 1, 4 and 64 tasks") {
    val edges = TestGraphs.toDF(spark, GraphGen.rmatLocal(8, 4, seed = 42)).persist()
    val z = (b: DistGD.Block, _: DistGD.Block) => b.ids.map(GDKernel.gauss(5, _))
    val runs = Seq(1, 4, 64).map { tasks =>
      val groups = new DistGD.Groups(64, tasks)
      val blocks = DistGD.weighted(DistGD.buildBlocks(edges, groups), Seq(Weights.ofDegree(Weights.Unit)), groups).persist()
      val grad = DistGD.matvec(blocks, blocks, groups)(z)((b, _, g) => b.ids.zip(g)).collect().flatten.toMap
      val sums = DistGD.sumUp(DistGD.matvec(blocks, blocks, groups)(z)((_, _, g) => Array(g.sum)))
      blocks.unpersist()
      (tasks, grad.view.mapValues(java.lang.Double.doubleToLongBits).toMap, sums.toSeq)
    }
    val (_, grad, sums) = runs.head
    assert(grad.size == GraphOps.vertexIds(edges).count())
    for ((tasks, g, s) <- runs.tail) {
      val differ = grad.count { case (id, bits) => g(id) != bits }
      assert(differ == 0, s"$tasks tasks: $differ of ${grad.size} gradient entries differ")
      assert(s == sums, s"$tasks tasks: block sums")
    }
    edges.unpersist()
  }

  test("no stage of a call at 64 blocks runs more than min(64, defaultParallelism) tasks, but the edge read") {
    val sc = spark.sparkContext
    val tasks = math.min(64, sc.defaultParallelism)
    // One edge partition more than the bound tells the edge read's stage apart.
    val edges = TestGraphs.toDF(spark, GraphGen.rmatLocal(8, 4, seed = 42)).repartition(tasks + 1).persist()
    edges.count()
    val stages = new ConcurrentLinkedQueue[Int]
    val listener = new SparkListener {
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = stages.add(e.stageInfo.numTasks)
    }
    sc.addSparkListener(listener)
    try {
      for ((name, call) <- Seq[(String, () => Any)](
             "bipartition" -> (() => DistGD.bipartition(spark, edges, Seq(Weights.Unit), short)),
             "partitionK k=4" -> (() => DistGD.partitionK(spark, edges, Seq(Weights.Unit), 4, short)))) {
        ListenerBusDrain(sc)
        stages.clear()
        withBlocks(64)(call())
        ListenerBusDrain(sc)
        val counts = stages.asScala.toSeq
        assert(counts.filter(_ > tasks) == Seq(tasks + 1), s"$name: tasks per stage $counts")
      }
    } finally sc.removeSparkListener(listener)
    edges.unpersist()
  }

  // Each stage's checkpoint cuts the lineage of what it computed, so the
  // cached parts do not carry the iterations, or the shuffles of their
  // gradients, that led to them.
  test("the parts a call leaves cached have the same lineage at I = 5 and I = 30") {
    val edges = TestGraphs.toDF(spark, GraphGen.rmatLocal(8, 4, seed = 42)).persist()
    edges.count()
    val sc = spark.sparkContext
    // Without vertex fixing every run uses its whole iteration budget.
    def cachedParts(iterations: Int): RDD[_] = {
      val before = sc.getPersistentRDDs.keySet
      val res = withBlocks(4)(DistGD.bipartition(spark, edges, Seq(Weights.Unit),
        cfg.copy(eps = 0.5, iterations = iterations, vertexFixing = false)))
      assert(res.iterations == iterations)
      val added = sc.getPersistentRDDs.filter { case (id, _) => !before(id) }.values.toSeq
      assert(added.size == 1)
      added.head
    }
    // The distinct RDDs of a lineage, counted first: `toDebugString` repeats
    // a shared ancestor on every path to it, and on an uncut lineage at
    // I = 30 it runs out of heap.
    def reached(rdd: RDD[_]): Int = {
      val seen = scala.collection.mutable.Set(rdd.id)
      var frontier = Seq[RDD[_]](rdd)
      while (frontier.nonEmpty) frontier = frontier.flatMap(_.dependencies.map(_.rdd)).filter(r => seen.add(r.id))
      seen.size
    }
    val few = cachedParts(5)
    val many = cachedParts(30)
    assert(reached(few) == reached(many))
    assert(few.toDebugString.linesIterator.size == many.toDebugString.linesIterator.size)
    edges.unpersist()
  }

  test("rejects non-default projection methods") {
    val edges = TestGraphs.toDF(spark, TestGraphs.path(10))
    intercept[IllegalArgumentException] {
      DistGD.bipartition(spark, edges, Seq(Weights.Unit),
        cfg.copy(projection = ProjectionMethod.Exact))
    }
  }

  test("reported imbalance matches a recomputation from the assignment") {
    val g = GraphGen.rmatLocal(8, 5, seed = 44)
    val edges = TestGraphs.toDF(spark, g).persist()
    val res = withBlocks(4)(DistGD.bipartition(spark, edges, Seq(Weights.Unit), cfg))
    val w = SqlMetrics.weightsDF(spark, edges, Seq(Weights.Unit))
    val imb = SqlMetrics.imbalance(res.assign, w.select(col("id"), col("w0") as "w"), "w", 2)
    assert(math.abs(imb - res.imbalances(0)) < 1e-6)
    edges.unpersist()
  }

  test("partitionK k=4 on planted communities: balanced, good locality") {
    val g = TestGraphs.plantedKCommunities(4, 40, 0.25, 0.01, seed = 45)
    val edges = TestGraphs.toDF(spark, g).persist()
    val assign = withBlocks(4)(DistGD.partitionK(spark, edges, Seq(Weights.Unit), 4,
      cfg.copy(iterations = 25)))
    val parts = assign.select("part").distinct().count()
    assert(parts == 4)
    val loc = SqlMetrics.edgeLocality(edges, assign)
    assert(loc > 0.5, s"k=4 locality $loc")
    val w = SqlMetrics.weightsDF(spark, edges, Seq(Weights.Unit))
    val imb = SqlMetrics.imbalance(assign, w.select(col("id"), col("w0") as "w"), "w", 4)
    assert(imb <= 0.3, s"k=4 imbalance $imb")
    edges.unpersist()
  }

  test("partitionK rejects non-power-of-two k") {
    val edges = TestGraphs.toDF(spark, TestGraphs.path(10))
    intercept[IllegalArgumentException] {
      DistGD.partitionK(spark, edges, Seq(Weights.Unit), 3, cfg)
    }
  }
}
