package repro.core

import java.util.concurrent.RecursiveAction
import repro.graphs.LocalGraph

/** Recursive k-way partitioning (paper §3.3): bipartition log₂k times.
  *
  * Weights are taken from the *original* graph (degree weights keep their
  * full-graph values when recursing, so edge balance tracks global edge
  * counts), while the gradient uses the induced subgraph's edges. Each
  * vertex draws its noise and rounding by its id in the input graph, and
  * the halves of a piece split with seed `s` recurse with [[childSeed]];
  * [[DistGD.partitionK]] runs the same recursion on Spark.
  *
  * The two halves of a split are independent: the second half's recursion is
  * forked onto the JVM's common fork-join pool while the calling thread does
  * the first. They share no mutable state (each has its own subgraph, weight
  * rows and seed) and write disjoint slots of the result, so the output does
  * not depend on the number of threads or on their timing.
  */
object RecursivePartitioner {

  /** The seed of the half on side `s` of a piece that was split with `seed`. */
  private[core] def childSeed(seed: Long, s: Int): Long = seed * 31 + 1 + s

  /** Partition `g` into `k` parts (k must be a power of two ≥ 1) balanced on
    * the given weight vectors. Returns part ids in [0, k).
    */
  def partition(g: LocalGraph, ws: Array[Array[Double]], k: Int, cfg: GDConfig): Array[Int] = {
    require(k >= 1 && (k & (k - 1)) == 0, s"k must be a power of two, got $k")
    val assign = new Array[Int](g.n)
    if (k == 1) return assign

    // Splits `sub` (`partsLeft ≥ 2`). The last level writes its parts
    // straight from the split's sides, with no subgraph per half.
    def recurse(sub: LocalGraph, toOriginal: Array[Int], wsSub: Array[Array[Double]],
                partsLeft: Int, partBase: Int, seed: Long): Unit = if (sub.n > 0) {
      val side = LocalGD.sides(sub, wsSub, cfg.copy(seed = seed), i => toOriginal(i))
      val half = partsLeft / 2
      def recurseOn(s: Int): Unit = {
        val (gs, m) = sub.inducedSubgraph(side.map(_ == s))
        recurse(gs, gather(toOriginal, m), wsSub.map(gather(_, m)), half, partBase + s * half, childSeed(seed, s))
      }
      if (half == 1) {
        var i = 0
        while (i < sub.n) { assign(toOriginal(i)) = partBase + side(i); i += 1 }
      } else {
        val second = new RecursiveAction { def compute(): Unit = recurseOn(1) }
        second.fork()
        recurseOn(0)
        second.join()
      }
    }

    recurse(g, Array.range(0, g.n), ws, k, 0, cfg.seed)
    assign
  }

  /** `a(idx(i))` for every i, without boxing. */
  private def gather(a: Array[Int], idx: Array[Int]): Array[Int] = {
    val out = new Array[Int](idx.length); java.util.Arrays.setAll(out, (i: Int) => a(idx(i))); out
  }
  private def gather(a: Array[Double], idx: Array[Int]): Array[Double] = {
    val out = new Array[Double](idx.length); java.util.Arrays.setAll(out, (i: Int) => a(idx(i))); out
  }
}
