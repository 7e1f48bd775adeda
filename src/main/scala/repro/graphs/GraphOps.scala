package repro.graphs

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Edge-list operations on DataFrames (columns src: long, dst: long) and the
  * in-core imbalance of an assignment. The Spark SQL
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
}
