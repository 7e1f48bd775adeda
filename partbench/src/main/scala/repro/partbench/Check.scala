package repro.partbench

import repro.graphs.LocalGraph

/** The check of one partition call's output, with the quality it measured.
  *
  * @param locality     fraction of uncut edges, recomputed here
  * @param maxImbalance max over dimensions j and parts p of
  *                     |w_j(V_p) − W_j/k| / (W_j/k)
  * @param bound        the largest per-dimension bound the output had to meet
  * @param problems     what was wrong; empty when the output is correct
  */
final case class Check(locality: Double, maxImbalance: Double, bound: Double, problems: Seq[String]) {
  def ok: Boolean = problems.isEmpty
}

object Check {

  def failed(why: String): Check = Check(Double.NaN, Double.NaN, Double.NaN, Seq(why))

  /** Per dimension j: ε plus the rounding granularity, compounded over the
    * log₂k levels of recursion. One vertex moves a piece's weight by at most
    * max_i w_j(i), which is g = max_i w_j(i)/W_j of the whole graph and
    * 2^l·g / (the lightest piece's share) at level l. For k = 2 the bound is
    * ε + g.
    */
  def bounds(ws: Array[Array[Double]], eps: Double, k: Int): Array[Double] = ws.map { w =>
    val g = w.max / w.sum
    var hi = 1.0
    var lo = 1.0
    var piece = 1
    while (piece < k) {
      val gl = g * piece / lo
      hi *= 1 + eps + gl
      lo *= 1 - eps - gl
      piece *= 2
    }
    math.max(hi - 1, 1 - lo)
  }

  /** Checks a k-way assignment of `g`: one part in [0, k) per vertex, the
    * reported locality (if any) equal to the recomputed one, and every
    * dimension within its bound.
    */
  def apply(g: LocalGraph, assign: Array[Int], k: Int, ws: Array[Array[Double]],
            bound: Array[Double], reportedLocality: Option[Double]): Check = {
    val problems = Seq.newBuilder[String]
    if (assign.length != g.n) return failed(s"assignment has length ${assign.length}, expected ${g.n}")
    val outside = assign.count(p => p < 0 || p >= k)
    if (outside > 0) return failed(s"$outside vertices have a part outside [0, $k)")

    var uncut = 0L
    var u = 0
    while (u < g.n) {
      var i = g.offsets(u)
      while (i < g.offsets(u + 1)) { if (u < g.adj(i) && assign(u) == assign(g.adj(i))) uncut += 1; i += 1 }
      u += 1
    }
    val locality = if (g.numEdges == 0) 1.0 else uncut.toDouble / g.numEdges
    reportedLocality.foreach { r =>
      if (math.abs(r - locality) > 1e-12) problems += s"reported locality $r, recomputed $locality"
    }

    var worst = 0.0
    ws.indices.foreach { j =>
      val totals = new Array[Double](k)
      var v = 0
      while (v < g.n) { totals(assign(v)) += ws(j)(v); v += 1 }
      val share = totals.sum / k
      val imb = if (share == 0) 0.0 else totals.map(t => math.abs(t - share)).max / share
      if (imb > bound(j) + 1e-12) problems += f"dimension $j imbalance $imb%.5f > bound ${bound(j)}%.5f"
      worst = math.max(worst, imb)
    }
    Check(locality, worst, bound.max, problems.result())
  }
}
