package repro.core

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.graphs.{GraphGen, GraphOps, LocalGraph}

/** Distributed GD: balance, quality, agreement with the in-core reference,
  * and the number of Spark jobs a GD iteration costs.
  */
class DistGDSpec extends SparkSpec {

  private val cfg = GDConfig(eps = 0.05, iterations = 30, seed = 5)

  test("planted bisection: balanced and far better than hash") {
    val g = GraphGen.plantedBisection(150, 0.12, 0.01, seed = 41)
    val edges = GraphGen.toDF(spark, g).persist()
    val res = DistGD.bipartition(spark, edges, Seq(Weights.Unit, Weights.Degree), cfg)
    assert(res.imbalances.max <= 0.05 + 0.05, s"imbalances ${res.imbalances.toSeq}")
    assert(res.locality > 0.7, s"locality ${res.locality}")
    val hash = repro.baselines.HashPartition.partition(g.n, 2)
    assert(res.locality > g.edgeLocality(hash) + 0.2)
    edges.unpersist()
  }

  test("assignment covers every edge-incident vertex with parts {0,1}") {
    val g = GraphGen.rmatLocal(8, 4, seed = 42)
    val edges = GraphGen.toDF(spark, g).persist()
    val res = DistGD.bipartition(spark, edges, Seq(Weights.Unit), cfg)
    val nVerts = GraphOps.vertexIds(edges).count()
    assert(res.assign.count() == nVerts)
    val parts = res.assign.select("part").distinct().collect().map(_.getInt(0)).toSet
    assert(parts.subsetOf(Set(0, 1)))
    edges.unpersist()
  }

  test("locality is comparable to the in-core reference on the same graph") {
    val g = GraphGen.plantedBisection(100, 0.15, 0.02, seed = 43)
    val edges = GraphGen.toDF(spark, g).persist()
    val dist = DistGD.bipartition(spark, edges, Seq(Weights.Unit, Weights.Degree), cfg)
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
    "planted" -> GraphGen.plantedBisection(40, 0.2, 0.03, seed = 47),
    "rmat" -> LocalGraph.fromDataFrame(GraphGen.toDF(spark, GraphGen.rmatLocal(7, 4, seed = 48)))._1)

  for (graph <- Seq("planted", "rmat"); d <- Seq(1, 2, 4); fixing <- Seq(true, false)) {
    test(s"LocalGD and DistGD agree per vertex: $graph graph, d=$d, vertex fixing $fixing") {
      val g = agreementGraphs(graph)
      assert((0 until g.n).forall(g.degree(_) > 0), "the graph has an isolated vertex")
      val specs = Weights.All.take(d)
      val c = cfg.copy(vertexFixing = fixing)
      val local = LocalGD.bipartition(g, Weights.localAll(g, specs), c)
      val edges = GraphGen.toDF(spark, g).persist()
      val partitions = spark.conf.get("spark.sql.shuffle.partitions")
      spark.conf.set("spark.sql.shuffle.partitions", "4")
      val dist = try DistGD.bipartition(spark, edges, specs, c)
        finally spark.conf.set("spark.sql.shuffle.partitions", partitions)
      val parts = dist.assign.collect().map(r => r.getLong(0).toInt -> r.getInt(1)).toMap
      assert(dist.iterations == local.iterations)
      assert(parts.size == g.n)
      val differ = (0 until g.n).count(i => parts(i) != local.side(i))
      assert(differ == 0, s"$differ of ${g.n} vertices are on different sides")
      dist.assign.unpersist()
      edges.unpersist()
    }
  }

  test("each GD iteration costs at most two Spark jobs") {
    val g = GraphGen.plantedBisection(60, 0.2, 0.02, seed = 46)
    val edges = GraphGen.toDF(spark, g).persist()
    val sc = spark.sparkContext
    // Without vertex fixing every run uses its whole iteration budget.
    def run(iterations: Int): (Int, Int) = {
      val jobs = new AtomicInteger
      val listener = new SparkListener {
        override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      }
      sc.addSparkListener(listener)
      try {
        val res = DistGD.bipartition(spark, edges, Seq(Weights.Unit),
          cfg.copy(iterations = iterations, vertexFixing = false))
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

  test("rejects non-default projection methods") {
    val edges = GraphGen.toDF(spark, GraphGen.path(10))
    intercept[IllegalArgumentException] {
      DistGD.bipartition(spark, edges, Seq(Weights.Unit),
        cfg.copy(projection = ProjectionMethod.Exact))
    }
  }

  test("reported imbalance matches a recomputation from the assignment") {
    val g = GraphGen.rmatLocal(8, 5, seed = 44)
    val edges = GraphGen.toDF(spark, g).persist()
    val res = DistGD.bipartition(spark, edges, Seq(Weights.Unit), cfg)
    val w = Weights.weightsDF(spark, edges, Seq(Weights.Unit))
    val imb = GraphOps.imbalance(res.assign, w.select(col("id"), col("w0") as "w"), "w", 2)
    assert(math.abs(imb - res.imbalances(0)) < 1e-6)
    edges.unpersist()
  }

  test("partitionK k=4 on planted communities: balanced, good locality") {
    val g = GraphGen.plantedKCommunities(4, 40, 0.25, 0.01, seed = 45)
    val edges = GraphGen.toDF(spark, g).persist()
    val assign = DistGD.partitionK(spark, edges, Seq(Weights.Unit), 4,
      cfg.copy(iterations = 25))
    val parts = assign.select("part").distinct().count()
    assert(parts == 4)
    val loc = GraphOps.edgeLocality(edges, assign)
    assert(loc > 0.5, s"k=4 locality $loc")
    val w = Weights.weightsDF(spark, edges, Seq(Weights.Unit))
    val imb = GraphOps.imbalance(assign, w.select(col("id"), col("w0") as "w"), "w", 4)
    assert(imb <= 0.3, s"k=4 imbalance $imb")
    edges.unpersist()
  }

  test("partitionK rejects non-power-of-two k") {
    val edges = GraphGen.toDF(spark, GraphGen.path(10))
    intercept[IllegalArgumentException] {
      DistGD.partitionK(spark, edges, Seq(Weights.Unit), 3, cfg)
    }
  }
}
