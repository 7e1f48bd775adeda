package repro.baselines

import repro.graphs.LocalGraph

/** Social Hash Partitioner baseline (Kabiljo et al., VLDB'17), per the
  * paper's §4 description: a Kernighan–Lin-style local search that balances
  * ONE combined dimension — a linear combination of the specified weights
  * with a higher coefficient on edges (degree) and a lower one on vertices.
  * Moves are exchanged in opposite-direction pairs so the combined balance
  * is preserved, but the individual dimensions are *not* guaranteed balanced
  * — the behaviour Figure 4 reports on skewed graphs.
  */
object SHP {

  /** Coefficient of deg(v) in the combined weight. */
  val EdgeCoeff = 1.0
  /** Coefficient of 1 in the combined weight. */
  val VertexCoeff = 0.1
  private val Iterations = 20

  def partition(g: LocalGraph, k: Int): Array[Int] = {
    val n = g.n
    val cw = Array.tabulate(n)(v => EdgeCoeff * g.degree(v) + VertexCoeff)

    // Initial combined-balanced assignment: sort by combined weight
    // descending, greedily place on the lightest part.
    val part = new Array[Int](n)
    val load = new Array[Double](k)
    val bySize = (0 until n).sortBy(v => -cw(v))
    bySize.foreach { v =>
      var best = 0
      var l = 1
      while (l < k) { if (load(l) < load(best)) best = l; l += 1 }
      part(v) = best
      load(best) += cw(v)
    }

    // Local search: per round, each vertex proposes its best target part
    // (by neighbor-affinity gain); opposite moves between a pair of parts are
    // exchanged in combined-weight-matched prefixes.
    val counts = new Array[Int](k)
    var it = 0
    while (it < Iterations) {
      // gains(p)(q) = vertices wanting to move p -> q with their gain
      val want = Array.fill(k, k)(List.empty[(Int, Double)])
      var u = 0
      while (u < n) {
        java.util.Arrays.fill(counts, 0)
        g.foreachNeighbor(u)(w => counts(part(w)) += 1)
        val p = part(u)
        var q = 0
        var bestQ = p
        var bestGain = 0.0
        while (q < k) {
          if (q != p) {
            val gain = counts(q) - counts(p)
            if (gain > bestGain) { bestGain = gain; bestQ = q }
          }
          q += 1
        }
        if (bestQ != p) want(p)(bestQ) = (u, bestGain) :: want(p)(bestQ)
        u += 1
      }
      var moved = 0
      for (p <- 0 until k; q <- p + 1 until k) {
        val pq = want(p)(q).sortBy(-_._2)
        val qp = want(q)(p).sortBy(-_._2)
        // Exchange weight-matched prefixes to preserve the combined balance.
        var i = 0; var j = 0
        var wPQ = 0.0; var wQP = 0.0
        val flips = List.newBuilder[Int]
        while (i < pq.length && j < qp.length) {
          if (wPQ <= wQP) { val (v, _) = pq(i); flips += v; wPQ += cw(v); i += 1 }
          else { val (v, _) = qp(j); flips += v; wQP += cw(v); j += 1 }
        }
        flips.result().foreach { v =>
          val from = part(v)
          val to = if (from == p) q else p
          part(v) = to
          moved += 1
        }
      }
      if (moved == 0) it = Iterations
      it += 1
    }
    part
  }
}
