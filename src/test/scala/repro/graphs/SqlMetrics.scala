package repro.graphs

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Weights

/** Spark SQL oracles for the partition-quality metrics and the weight rows.
  *
  * Each is a DataFrame job over the edge list, so the tests can check it
  * against DuckDB over the same tables and check the programs' own
  * in-core or per-block figures against it. Edge lists use columns
  * (src: long, dst: long); assignments use (id: long, part: int).
  */
object SqlMetrics {

  /** Both orientations of every canonical edge — the adjacency relation used
    * by the distributed mat-vec.
    */
  def symmetrize(edges: DataFrame): DataFrame =
    edges.select(col("src"), col("dst"))
      .union(edges.select(col("dst") as "src", col("src") as "dst"))

  /** (id, deg) for every endpoint appearing in the canonical edge list. */
  def degrees(edges: DataFrame): DataFrame =
    symmetrize(edges).groupBy(col("src") as "id").agg(count(lit(1)).cast("long") as "deg")

  /** One-row DataFrame (uncut, total, locality) for an assignment. */
  def localityDF(edges: DataFrame, assign: DataFrame): DataFrame = {
    val a = assign.select(col("id") as "sid", col("part") as "sp")
    val b = assign.select(col("id") as "did", col("part") as "dp")
    edges
      .join(a, col("src") === col("sid"))
      .join(b, col("dst") === col("did"))
      .agg(
        sum(when(col("sp") === col("dp"), 1L).otherwise(0L)) as "uncut",
        count(lit(1)).cast("long") as "total",
      )
      .select(col("uncut"), col("total"),
              (col("uncut").cast("double") / col("total")) as "locality")
  }

  /** Edge locality (fraction of uncut edges) as a scalar. */
  def edgeLocality(edges: DataFrame, assign: DataFrame): Double = {
    val r = localityDF(edges, assign).collect()(0)
    r.getDouble(2)
  }

  /** Per-part totals of a weight column: (part, total). */
  def partWeights(assign: DataFrame, weights: DataFrame, weightCol: String): DataFrame =
    assign.join(weights, "id")
      .groupBy("part")
      .agg(sum(col(weightCol)).cast("double") as "total")

  /** Imbalance max_i w(V_i) / avg_i w(V_i) - 1 for one weight column.
    * The average is taken over all k parts (parts that received no vertex
    * count as zero weight), matching the paper's definition.
    */
  def imbalance(assign: DataFrame, weights: DataFrame, weightCol: String, k: Int): Double = {
    val r = partWeights(assign, weights, weightCol)
      .agg(max(col("total")) as "mx", sum(col("total")) as "tot")
      .collect()(0)
    val mx = r.getDouble(0)
    val avg = r.getDouble(1) / k
    if (avg == 0) 0.0 else mx / avg - 1.0
  }

  /** Upload a local assignment as (id, part). */
  def assignToDF(spark: SparkSession, assign: Array[Int]): DataFrame = {
    import spark.implicits._
    assign.zipWithIndex.map { case (p, i) => (i.toLong, p) }.toSeq.toDF("id", "part")
  }

  /** DataFrame (id, w0, w1, ...) for the given specs over the vertices of
    * the canonical edge list. Isolated vertices do not appear in the edge
    * list and are excluded, matching the local path. Written in Spark SQL
    * so tests can check it against DuckDB; the distributed GD builds its
    * weight rows with [[Weights.ofDegree]].
    */
  def weightsDF(spark: SparkSession, edges: DataFrame, specs: Seq[String]): DataFrame = {
    import Weights.{Degree, DegreeSquared, SqrtDegree, Unit}
    val deg = degrees(edges)
    val cols = specs.zipWithIndex.map { case (spec, j) =>
      val e = spec match {
        case Unit          => lit(1.0)
        case Degree        => col("deg").cast("double")
        case SqrtDegree    => sqrt(col("deg").cast("double"))
        case DegreeSquared => (col("deg") * col("deg")).cast("double")
        case other         => throw new IllegalArgumentException(s"unknown weight spec: $other")
      }
      e as s"w$j"
    }
    deg.select(col("id") +: cols: _*)
  }
}
