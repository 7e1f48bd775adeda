package repro.graphs

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Edge-list operations on DataFrames (columns src: long, dst: long) and the
  * in-core imbalance and per-worker loads of an assignment. The Spark SQL
  * metric oracles that the tests check these against live on the test side.
  */
object GraphOps {

  /** Canonical undirected edge list: src < dst, no self-loops, distinct. */
  def canonicalize(edges: DataFrame): DataFrame =
    edges
      .select(least(col("src"), col("dst")) as "src",
              greatest(col("src"), col("dst")) as "dst")
      .where(col("src") =!= col("dst"))
      .distinct()

  /** Distinct vertex ids of the edge list. */
  def vertexIds(edges: DataFrame): DataFrame =
    edges.select(col("src") as "id").union(edges.select(col("dst") as "id")).distinct()

  /** Imbalance of a local assignment against a local weight vector. */
  def imbalanceLocal(assign: Array[Int], w: Array[Double], k: Int): Double = {
    val totals = new Array[Double](k)
    var i = 0
    while (i < assign.length) { totals(assign(i)) += w(i); i += 1 }
    val avg = totals.sum / k
    if (avg == 0) 0.0 else totals.max / avg - 1.0
  }

  /** Per-worker load stats for the Giraph simulator, computed locally:
    * for each part — vertex count, internal (uncut) edges, and cut-edge
    * endpoints (== remote messages out == remote messages in per superstep
    * per message wave).
    */
  def workerLoadsLocal(g: LocalGraph, assign: Array[Int], k: Int)
      : (Array[Long], Array[Long], Array[Long]) = {
    val vcnt = new Array[Long](k)
    val internal = new Array[Long](k)
    val cutEnds = new Array[Long](k)
    var v = 0
    while (v < g.n) { vcnt(assign(v)) += 1; v += 1 }
    var u = 0
    while (u < g.n) {
      var i = g.offsets(u)
      val end = g.offsets(u + 1)
      while (i < end) {
        val w = g.adj(i)
        if (u < w) {
          if (assign(u) == assign(w)) internal(assign(u)) += 1
          else { cutEnds(assign(u)) += 1; cutEnds(assign(w)) += 1 }
        }
        i += 1
      }
      u += 1
    }
    (vcnt, internal, cutEnds)
  }
}
