package repro.graphs

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SplitMix.mix
import scala.util.Random

/** Deterministic synthetic graph generators.
  *
  * The paper evaluates on SNAP social networks and Facebook friendship
  * subgraphs, which are unavailable offline; RMAT graphs with matching skew
  * serve as substitutes (see DESIGN.md §4). All generators are deterministic
  * in their seed so local and distributed paths see identical graphs.
  */
object GraphGen {

  /** One RMAT edge from a dedicated per-edge RNG: `scale` recursive
    * quadrant choices with probabilities (a, b, c, 1-a-b-c).
    */
  private def rmatEdge(rng: Random, scale: Int, a: Double, b: Double, c: Double): (Long, Long) = {
    var u = 0L
    var v = 0L
    var bit = 0
    while (bit < scale) {
      val p = rng.nextDouble()
      if (p < a) { /* top-left */ }
      else if (p < a + b) { v |= 1L << bit }
      else if (p < a + b + c) { u |= 1L << bit }
      else { u |= 1L << bit; v |= 1L << bit }
      bit += 1
    }
    (u, v)
  }

  /** Distributed RMAT: `2^scale` vertices, `edgeFactor * 2^scale` edge draws,
    * canonicalized (src < dst, no self-loops, distinct). Power-law degree
    * skew grows with `a`.
    */
  def rmat(spark: SparkSession, scale: Int, edgeFactor: Int, seed: Long = 42,
           a: Double = 0.57, b: Double = 0.19, c: Double = 0.19): DataFrame = {
    import spark.implicits._
    val numDraws = (1L << scale) * edgeFactor
    val drawn = spark.range(numDraws).as[Long].mapPartitions { it =>
      it.map { i =>
        val rng = new Random(mix(seed, i))
        rmatEdge(rng, scale, a, b, c)
      }
    }.toDF("src", "dst")
    GraphOps.canonicalize(drawn)
  }

  /** Driver-side RMAT with identical semantics to [[rmat]] (same seed ⇒ same
    * graph, modulo vertex-id compaction done by the caller).
    */
  def rmatLocal(scale: Int, edgeFactor: Int, seed: Long = 42,
                a: Double = 0.57, b: Double = 0.19, c: Double = 0.19): LocalGraph = {
    val numDraws = (1L << scale) * edgeFactor
    val es = Array.newBuilder[(Int, Int)]
    var i = 0L
    while (i < numDraws) {
      val rng = new Random(mix(seed, i))
      val (u, v) = rmatEdge(rng, scale, a, b, c)
      es += ((u.toInt, v.toInt))
      i += 1
    }
    LocalGraph.fromEdges(1 << scale, es.result())
  }

  /** Planted bisection: two communities of `half` vertices each; each
    * intra-community pair is an edge w.p. `pIn`, inter-community w.p. `pOut`.
    * Ground truth: vertices [0, half) vs [half, 2*half).
    */
  def plantedBisection(half: Int, pIn: Double, pOut: Double, seed: Long = 7): LocalGraph =
    plantedKCommunities(2, half, pIn, pOut, seed)

  /** `k` planted communities of size `per`; used for recursive k-way tests. */
  def plantedKCommunities(k: Int, per: Int, pIn: Double, pOut: Double, seed: Long = 9): LocalGraph = {
    val rng = new Random(seed)
    val n = k * per
    val es = Array.newBuilder[(Int, Int)]
    var u = 0
    while (u < n) {
      var v = u + 1
      while (v < n) {
        val p = if (u / per == v / per) pIn else pOut
        if (rng.nextDouble() < p) es += ((u, v))
        v += 1
      }
      u += 1
    }
    LocalGraph.fromEdges(n, es.result())
  }

  /** Two cliques of size `s` joined by a single bridge edge (0 .. s-1) and
    * (s .. 2s-1): the canonical easy bisection instance.
    */
  def twoCliquesBridge(s: Int): LocalGraph = {
    val es = Array.newBuilder[(Int, Int)]
    for (u <- 0 until s; v <- u + 1 until s) { es += ((u, v)); es += ((u + s, v + s)) }
    es += ((s - 1, s))
    LocalGraph.fromEdges(2 * s, es.result())
  }

  /** Simple path 0-1-...-(n-1). */
  def path(n: Int): LocalGraph =
    LocalGraph.fromEdges(n, Array.tabulate(n - 1)(i => (i, i + 1)))

  /** Cycle on n vertices. */
  def cycle(n: Int): LocalGraph =
    LocalGraph.fromEdges(n, Array.tabulate(n)(i => (i, (i + 1) % n)))

  /** Star: center 0 connected to 1..n-1 (one hub — maximal degree skew). */
  def star(n: Int): LocalGraph =
    LocalGraph.fromEdges(n, Array.tabulate(n - 1)(i => (0, i + 1)))

  /** Complete graph K_n. */
  def complete(n: Int): LocalGraph = {
    val es = for (u <- 0 until n; v <- u + 1 until n) yield (u, v)
    LocalGraph.fromEdges(n, es.toArray)
  }

  /** r x c grid graph. */
  def grid(r: Int, c: Int): LocalGraph = {
    val es = Array.newBuilder[(Int, Int)]
    for (i <- 0 until r; j <- 0 until c) {
      val v = i * c + j
      if (j + 1 < c) es += ((v, v + 1))
      if (i + 1 < r) es += ((v, v + c))
    }
    LocalGraph.fromEdges(r * c, es.result())
  }

  /** Upload a LocalGraph as a canonical DataFrame edge list (src < dst). */
  def toDF(spark: SparkSession, g: LocalGraph): DataFrame = {
    import spark.implicits._
    g.edges.toSeq.map { case (u, v) => (u.toLong, v.toLong) }.toDF("src", "dst")
  }

  // ---- Named substitutes for the paper's datasets (DESIGN.md §4) ----

  /** LiveJournal-lite: moderate size, moderate skew. */
  def liveJournalLiteLocal(): LocalGraph = rmatLocal(14, 12, seed = 101)

  /** Orkut-lite: denser. */
  def orkutLiteLocal(): LocalGraph = rmatLocal(13, 28, seed = 102)

  /** Twitter-lite: dense with strongly skewed degrees (a = 0.65). */
  def twitterLiteLocal(): LocalGraph = rmatLocal(14, 35, seed = 103, a = 0.65, b = 0.16, c = 0.16)

  /** Friendster-lite: larger, moderately dense. */
  def friendsterLiteLocal(): LocalGraph = rmatLocal(15, 27, seed = 104)

  /** FB-lite-s: the FB-X stand-ins at RMAT scale `s` (13..17). */
  def fbLite(spark: SparkSession, scale: Int): DataFrame = rmat(spark, scale, 16, seed = 200 + scale)
  def fbLiteLocal(scale: Int): LocalGraph = rmatLocal(scale, 16, seed = 200 + scale)
}
