package repro.partbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{DistGD, GDConfig, LocalGD, RecursivePartitioner, Weights}
import repro.graphs.{GraphGen, LocalGraph}

/** One workload: how to build its inputs from a seed, and how to call the
  * partitioner on them. README.md says why each one is in the benchmark.
  */
trait Workload {
  def name: String
  /** Timed calls per untraced run, however short `--seconds` is. */
  def minCalls: Int
  /** A call slower than this counts as failed. */
  def callLimitS: Double
  /** Builds the inputs from the seed (or the repository's defaults), with
    * any session they need, and warms up.
    */
  def setUp(seed: Option[Long]): Instance
  def sparkSettings: Seq[(String, Any)] = Seq("spark_master" -> "none")
  def close(): Unit = ()
}

/** A workload set up on concrete inputs. */
trait Instance {
  /** Runs one partition call; the returned function checks its output. */
  def partition(): () => Check
  /** The traced measurements of README.md's layer table, with the traced
    * partition call they start with.
    */
  def layers(): LayerRun
  /** Seeds and sizes, recorded with the result. */
  def record: Seq[(String, Any)]
  def close(): Unit = ()
}

/** Per-layer metrics and the traced partition call they came with. */
final case class LayerRun(metrics: Seq[(String, (Double, String))], traced: Main.Sample)

object Workloads {
  val specs: Seq[String] = Seq(Weights.Unit, Weights.Degree)

  val all: Seq[Workload] = Seq(
    // LJ-lite (GraphGen.liveJournalLiteLocal): RMAT scale 14, edge factor 12, graph seed 101.
    new InCore("bisect-lj", scale = 14, edgeFactor = 12, graphSeed = 101, gdSeed = GDConfig().seed,
      k = 2, cfg = GDConfig(), warmups = 5, minCalls = 20),
    // FB-lite-15 (GraphGen.fbLiteLocal(15)): scale 15, edge factor 16, graph seed 215; Table 1's
    // vertex-edge setting.
    new InCore("kway-fb15", scale = 15, edgeFactor = 16, graphSeed = 215, gdSeed = 5,
      k = 16, cfg = GDConfig(eps = 0.03), warmups = 1, minCalls = 10),
    new Distributed,
  )

  val names: Seq[String] = all.map(_.name)
  val byName: Map[String, Workload] = all.map(w => w.name -> w).toMap
}

import Workloads._

/** In-core workloads: `LocalGD.bipartition` for k = 2, otherwise
  * `RecursivePartitioner.partition`, on a local RMAT graph with d = 2
  * weights {unit, deg}.
  */
final class InCore(val name: String, scale: Int, edgeFactor: Int, graphSeed: Long, gdSeed: Long,
                   k: Int, cfg: GDConfig, warmups: Int, val minCalls: Int)
    extends Workload {
  val callLimitS = 60.0

  def setUp(seed: Option[Long]): Instance = {
    val gSeed = seed.getOrElse(graphSeed)
    val c = cfg.copy(seed = seed.getOrElse(gdSeed))
    val gen = () => GraphGen.rmatLocal(scale, edgeFactor, seed = gSeed)
    val g = gen()
    val ws = Weights.localAll(g, specs)
    val inst = new InCoreInstance(g, ws, c, gen, Seq("graph_seed" -> gSeed, "gd_seed" -> c.seed))
    (1 to warmups).foreach(_ => inst.partition())
    inst
  }

  private final class InCoreInstance(g: LocalGraph, ws: Array[Array[Double]], c: GDConfig,
                                     gen: () => LocalGraph, seeds: Seq[(String, Any)]) extends Instance {
    private val bound = Check.bounds(ws, c.eps, k)

    /** The call, and the part ids with the locality the partitioner reported (if any). */
    private def call(): (Array[Int], Option[Double]) =
      if (k == 2) { val r = LocalGD.bipartition(g, ws, c); (r.side, Some(r.locality)) }
      else (RecursivePartitioner.partition(g, ws, k, c), None)

    def partition(): () => Check = {
      val (assign, reported) = call()
      () => Check(g, assign, k, ws, bound, reported)
    }

    def layers(): LayerRun = {
      var assign: Array[Int] = null
      val traced = Main.sample(() => {
        val (a, reported) = call()
        assign = a
        () => Check(g, a, k, ws, bound, reported)
      }, callLimitS)
      require(assign != null, "the traced call failed")
      val metrics = Layers.graphs(gen, g, assign, k) ++ Layers.core(g, ws, c, specs) ++ Layers.noSpark
      LayerRun(metrics, traced)
    }

    val record: Seq[(String, Any)] = seeds ++ Seq(
      "n" -> g.n, "edges" -> g.numEdges, "k" -> k, "eps" -> c.eps, "iterations" -> c.iterations)
  }
}

/** `DistGD.bipartition` on FB-lite-13 (scale 13, edge factor 16, graph seed
  * 213), ε = 0.03, I = 20: the first row of Fig. 11 / ScalabilityBench.
  *
  * The session is local[nproc] with 2·nproc shuffle partitions. With the
  * test suite's 64 partitions a call took 34–49 s and ran 3,414 tasks, too
  * unsteady to gate on; with 8 partitions on 4 cores it took 10.5–12.5 s
  * once the JVM was warm. Both settings leave the per-iteration overhead
  * fully visible (222 jobs for 20 iterations). Broadcast joins are off, as
  * in the tests, so the mat-vec join shuffles.
  */
final class Distributed extends Workload {
  val name = "dist-bisect-fb13"
  val minCalls = 3
  val callLimitS = 100.0
  private val cfg = GDConfig(eps = 0.03, iterations = 20)
  private val cores = Runtime.getRuntime.availableProcessors
  private val shufflePartitions = 2 * cores
  private var spark: SparkSession = _

  private def startSession(): Unit = {
    val workDir = new java.io.File(sys.props.getOrElse("partbench.workDir", ".bench_build/partbench")).getAbsoluteFile
    spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("partbench")
      .config("spark.sql.shuffle.partitions", shufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.log.level", "WARN")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", new java.io.File(workDir, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new java.io.File(workDir, "spark-warehouse").getPath)
      .getOrCreate()
  }

  override def sparkSettings: Seq[(String, Any)] = Seq(
    "spark_master" -> s"local[$cores]",
    "spark_shuffle_partitions" -> shufflePartitions,
    "spark_broadcast_joins" -> false,
  )

  override def close(): Unit = if (spark != null) { spark.stop(); spark = null }

  def setUp(seed: Option[Long]): Instance = {
    startSession()
    val gSeed = seed.getOrElse(213L)
    val c = cfg.copy(seed = seed.getOrElse(5L))
    // As GraphGen.fbLite(spark, 13), with the workload's seed.
    val gen = () => { val e = GraphGen.rmat(spark, 13, 16, seed = gSeed).persist(); e.count(); e }
    val edges = gen()
    // The graph DistGD sees: isolated vertices are not in the edge list.
    val (g, ids) = LocalGraph.fromDataFrame(edges)
    val ws = Weights.localAll(g, specs)
    // Warm-up: a short run takes every code path of a full one.
    DistGD.bipartition(spark, edges, specs, c.copy(iterations = 5)).assign.unpersist()
    new DistInstance(edges, g, ids, ws, c, () => gen().unpersist(), gSeed)
  }

  private final class DistInstance(edges: DataFrame, g: LocalGraph, ids: Array[Long],
                                   ws: Array[Array[Double]], c: GDConfig,
                                   gen: () => Any, gSeed: Long) extends Instance {
    private val bound = Check.bounds(ws, c.eps, 2)
    private val index: Map[Long, Int] = ids.zipWithIndex.toMap

    private def call(): DistGD.Result = DistGD.bipartition(spark, edges, specs, c)

    /** Collects and checks the assignment; vertices missing from it keep part −1. */
    private def check(r: DistGD.Result): (Check, Array[Int]) = {
      val rows = r.assign.collect()
      r.assign.unpersist()
      val assign = Array.fill(g.n)(-1)
      rows.foreach(row => index.get(row.getLong(0)).foreach(i => assign(i) = row.getInt(1)))
      val check = Check(g, assign, 2, ws, bound, Some(r.locality))
      if (rows.length == g.n) (check, assign)
      else (check.copy(problems = check.problems :+ s"${rows.length} assignment rows for ${g.n} vertices"), assign)
    }

    def partition(): () => Check = {
      val r = call()
      () => check(r)._1
    }

    def layers(): LayerRun = {
      val counters = new SparkCounters
      val sc = spark.sparkContext
      var result: DistGD.Result = null
      var assign: Array[Int] = null
      val traced = Main.sample(() => {
        sc.addSparkListener(counters)
        try result = call()
        finally {
          org.apache.spark.ListenerDrain(sc)
          sc.removeSparkListener(counters)
        }
        () => { val (ck, a) = check(result); assign = a; ck }
      }, callLimitS)
      require(assign != null, "the traced call failed")
      val reference = LocalGD.bipartition(g, ws, c)
      val dist = Seq(
        "dist.iterations" -> (result.iterations.toDouble, "count"),
        "dist.iter_s" -> (traced.wallS / math.max(result.iterations, 1), "s"),
        "dist.locality_gap" -> (result.locality - reference.locality, "fraction"),
      )
      val metrics = Layers.graphs(gen, g, assign, 2) ++ Layers.core(g, ws, c, specs) ++ dist ++
        counters.metrics(result.iterations, traced.wallS, cores)
      LayerRun(metrics, traced)
    }

    val record: Seq[(String, Any)] = Seq(
      "graph_seed" -> gSeed, "gd_seed" -> c.seed, "n" -> g.n, "edges" -> g.numEdges, "k" -> 2,
      "eps" -> c.eps, "iterations" -> c.iterations)

    override def close(): Unit = edges.unpersist()
  }
}
