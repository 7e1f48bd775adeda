package repro.core

import repro.graphs.LocalGraph

/** The paper's vertex weight functions: 1, deg(v), sqrt(deg(v)), deg(v)^2.
  *
  * "vertex" balance uses the unit weight, "edge" balance uses the degree
  * weight (part edge counts track summed degrees), and the 4-dimensional
  * experiment of §4.1 uses all four. [[ofDegree]] is the one definition;
  * the in-core vectors and [[DistGD]]'s weight rows are both built with it.
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
}
