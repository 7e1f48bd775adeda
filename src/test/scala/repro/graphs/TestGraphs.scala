package repro.graphs

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.util.Random

/** Small deterministic graphs with known structure, and the upload of a
  * [[LocalGraph]] as an edge list, for the tests.
  */
object TestGraphs {

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
}
