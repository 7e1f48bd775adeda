package repro.baselines

import repro.graphs.LocalGraph
import scala.util.Random

/** Reimplementation of Spinner's core loop (Martella et al., ICDE'17) as
  * described in the paper's §4: label propagation where each vertex adopts
  * the label most frequent among its neighbors, with a multiplicative
  * penalty for labels whose *edge load* exceeds capacity. Spinner balances a
  * single dimension (edges); on skewed graphs its vertex balance degrades —
  * the behaviour Figure 4 reports.
  */
object Spinner {

  private val BalanceSlack = 0.05 // capacity headroom over the perfectly balanced load
  private val Iterations = 30     // label-propagation rounds
  private val Seed = 23L

  def partition(g: LocalGraph, k: Int): Array[Int] = {
    val n = g.n
    val rng = new Random(Seed)
    val label = Array.fill(n)(rng.nextInt(k))
    // load = sum of degrees per label (Spinner's definition of load).
    val load = new Array[Double](k)
    var v = 0
    while (v < n) { load(label(v)) += g.degree(v); v += 1 }
    val totalLoad = load.sum
    val capacity = (totalLoad / k) * (1.0 + BalanceSlack)

    val counts = new Array[Double](k)
    val order = rng.shuffle((0 until n).toVector).toArray
    var it = 0
    while (it < Iterations) {
      var moved = 0
      var oi = 0
      while (oi < n) {
        val u = order(oi)
        java.util.Arrays.fill(counts, 0.0)
        g.foreachNeighbor(u)(w => counts(label(w)) += 1.0)
        val deg = g.degree(u).toDouble
        val cur = label(u)
        var best = cur
        var bestScore = Double.MinValue
        var l = 0
        while (l < k) {
          // Spinner score: neighbor affinity + unused-capacity bonus.
          val frac = if (deg > 0) counts(l) / deg else 0.0
          val lNew = if (l == cur) load(l) else load(l) + deg
          val penalty = 1.0 - lNew / math.max(capacity, 1e-9)
          val score = frac + BalanceSlack * penalty
          if (score > bestScore + 1e-12) { bestScore = score; best = l }
          l += 1
        }
        if (best != cur && load(best) + deg <= capacity) {
          load(cur) -= deg
          load(best) += deg
          label(u) = best
          moved += 1
        }
        oi += 1
      }
      if (moved == 0) it = Iterations
      it += 1
    }
    label
  }
}
