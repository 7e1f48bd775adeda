package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graphs.{GraphOps, LocalGraph}

/** The paper's vertex weight functions: 1, deg(v), sqrt(deg(v)), deg(v)^2.
  *
  * "vertex" balance uses the unit weight, "edge" balance uses the degree
  * weight (part edge counts track summed degrees), and the 4-dimensional
  * experiment of §4.1 uses all four.
  */
object Weights {

  val Unit = "unit"
  val Degree = "deg"
  val SqrtDegree = "sqrt"
  val DegreeSquared = "deg2"

  /** All specs in the fixed order used by the 4-dim experiment. */
  val All: Seq[String] = Seq(Unit, Degree, SqrtDegree, DegreeSquared)

  /** Weight of a vertex of the given degree under one spec. Throws
    * IllegalArgumentException for an unknown spec when called, not when
    * the returned function is applied.
    */
  def ofDegree(spec: String): Int => Double = spec match {
    case Unit          => _ => 1.0
    case Degree        => deg => deg.toDouble
    case SqrtDegree    => deg => math.sqrt(deg.toDouble)
    case DegreeSquared => deg => { val d = deg.toDouble; d * d }
    case other         => throw new IllegalArgumentException(s"unknown weight spec: $other")
  }

  /** Local weight vector for one spec. */
  def local(g: LocalGraph, spec: String): Array[Double] = {
    val w = ofDegree(spec)
    Array.tabulate(g.n)(v => w(g.degree(v)))
  }

  /** Local weight matrix (d rows of length n) for a list of specs. */
  def localAll(g: LocalGraph, specs: Seq[String]): Array[Array[Double]] =
    specs.map(local(g, _)).toArray

  /** DataFrame (id, w0, w1, ...) for the given specs over the vertices of
    * the canonical edge list. Isolated vertices do not appear in the edge
    * list and are excluded, matching the local path. Written in Spark SQL
    * so tests can check it against DuckDB; the distributed GD builds its
    * weight rows with [[ofDegree]].
    */
  def weightsDF(spark: SparkSession, edges: DataFrame, specs: Seq[String]): DataFrame = {
    val deg = GraphOps.degrees(edges)
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
