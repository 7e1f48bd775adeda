package repro.graphs

import repro.SplitMix.mix
import scala.util.Random

/** Reference graph builders for the tests: the CSR built from edge tuples
  * with `.distinct` and a sort of every adjacency list, and the local RMAT
  * generator that draws each edge from a `Random` object. [[LocalGraph]]
  * and [[GraphGen]] must build exactly their arrays.
  */
object ReferenceGraphs {

  def fromEdges(n: Int, raw: Array[(Int, Int)]): LocalGraph = {
    val canon = raw.iterator
      .filter { case (u, v) => u != v }
      .map { case (u, v) => if (u < v) (u, v) else (v, u) }
      .toArray
      .distinct
    val deg = new Array[Int](n)
    canon.foreach { case (u, v) => deg(u) += 1; deg(v) += 1 }
    val offsets = new Array[Int](n + 1)
    for (i <- 0 until n) offsets(i + 1) = offsets(i) + deg(i)
    val cursor = offsets.clone()
    val adj = new Array[Int](canon.length * 2)
    canon.foreach { case (u, v) =>
      adj(cursor(u)) = v; cursor(u) += 1
      adj(cursor(v)) = u; cursor(v) += 1
    }
    for (i <- 0 until n) java.util.Arrays.sort(adj, offsets(i), offsets(i + 1))
    new LocalGraph(n, offsets, adj)
  }

  def rmatLocal(scale: Int, edgeFactor: Int, seed: Long,
                a: Double = 0.57, b: Double = 0.19, c: Double = 0.19): LocalGraph = {
    val es = Array.tabulate(((1L << scale) * edgeFactor).toInt) { i =>
      val rng = new Random(mix(seed, i))
      var (u, v) = (0, 0)
      for (bit <- 0 until scale) {
        val p = rng.nextDouble()
        if (p < a) {}
        else if (p < a + b) v |= 1 << bit
        else if (p < a + b + c) u |= 1 << bit
        else { u |= 1 << bit; v |= 1 << bit }
      }
      (u, v)
    }
    fromEdges(1 << scale, es)
  }
}
