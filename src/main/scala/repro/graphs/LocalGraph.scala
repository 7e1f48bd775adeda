package repro.graphs

import org.apache.spark.sql.DataFrame

/** Immutable CSR (compressed sparse row) representation of a simple
  * undirected graph on vertices `0 until n`.
  *
  * Each undirected edge {u,v} is stored twice in `adj` (once per endpoint),
  * so `adj.length == 2 * numEdges`. The builders remove self-loops and
  * parallel edges and sort every adjacency list.
  *
  * This is the in-core graph of [[repro.core.LocalGD]], the recursive
  * partitioner and the baseline partitioners. [[repro.core.DistGD]] builds
  * its own CSR blocks, one per Spark partition, from the DataFrame edge list.
  */
final class LocalGraph(val n: Int, val offsets: Array[Int], val adj: Array[Int]) {

  /** Number of undirected edges. */
  def numEdges: Long = adj.length.toLong / 2

  /** Degree of vertex `v`. */
  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** Apply `f` to each neighbor of `v`. */
  @inline def foreachNeighbor(v: Int)(f: Int => Unit): Unit = {
    var i = offsets(v)
    val end = offsets(v + 1)
    while (i < end) { f(adj(i)); i += 1 }
  }

  /** All undirected edges as (u, v) with u < v. */
  def edges: Array[(Int, Int)] = {
    val b = Array.newBuilder[(Int, Int)]
    var u = 0
    while (u < n) {
      foreachNeighbor(u)(v => if (u < v) b += ((u, v)))
      u += 1
    }
    b.result()
  }

  /** Number of edges with both endpoints in the same part of `assign`,
    * counted at their smaller endpoint, for the rows `[lo, hi)`.
    */
  def uncutEdges(assign: Array[Int], lo: Int = 0, hi: Int = n): Long = {
    var cnt = 0L
    var u = lo
    while (u < hi) {
      var i = offsets(u)
      val end = offsets(u + 1)
      while (i < end) {
        val v = adj(i)
        if (u < v && assign(u) == assign(v)) cnt += 1
        i += 1
      }
      u += 1
    }
    cnt
  }

  /** Fraction of edges with both endpoints in the same part. */
  def edgeLocality(assign: Array[Int]): Double = locality(uncutEdges(assign))

  /** Fraction of edges that `uncut` of them are; 1 for an edgeless graph. */
  def locality(uncut: Long): Double = if (numEdges == 0) 1.0 else uncut.toDouble / numEdges

  /** Induced subgraph on `keep` (a 0/1 membership mask); returns the
    * subgraph together with the increasing map from new vertex ids to
    * original ids.
    *
    * Each kept vertex's adjacency is filtered through the increasing
    * old → new id map, so it stays sorted and duplicate-free: the arrays are
    * exactly those [[LocalGraph.fromEdges]] builds from the kept edges. A
    * first pass counts the kept vertices and adjacency entries, so every
    * returned array is allocated at its final size.
    */
  def inducedSubgraph(keep: Array[Boolean]): (LocalGraph, Array[Int]) = {
    val old2new = new Array[Int](n) // read for kept vertices only
    var m = 0
    var entries = 0
    var v = 0
    while (v < n) {
      if (keep(v)) {
        old2new(v) = m; m += 1
        var i = offsets(v)
        val end = offsets(v + 1)
        while (i < end) { if (keep(adj(i))) entries += 1; i += 1 }
      }
      v += 1
    }
    val new2old = new Array[Int](m)
    val subOffsets = new Array[Int](m + 1)
    val subAdj = new Array[Int](entries)
    var j = 0
    v = 0
    while (v < n) {
      if (keep(v)) {
        new2old(old2new(v)) = v
        var i = offsets(v)
        val end = offsets(v + 1)
        while (i < end) {
          if (keep(adj(i))) { subAdj(j) = old2new(adj(i)); j += 1 }
          i += 1
        }
        subOffsets(old2new(v) + 1) = j
      }
      v += 1
    }
    (new LocalGraph(m, subOffsets, subAdj), new2old)
  }
}

object LocalGraph {

  /** Build from an edge list; drops self-loops and duplicate/parallel edges
    * (after canonicalizing to u < v).
    */
  def fromEdges(n: Int, raw: Array[(Int, Int)]): LocalGraph = {
    val packed = new Array[Long](raw.length)
    java.util.Arrays.setAll(packed, (i: Int) => raw(i)._1.toLong << 32 | raw(i)._2)
    fromPacked(n, packed)
  }

  /** [[fromEdges]] on edges packed as `(u << 32) | v` (`u, v ≥ 0`), with no
    * tuples: the edges are canonicalized to `(min << 32) | max` without
    * self-loops, sorted and deduplicated in `packed`, then written out in
    * `(u, v)` order, so every adjacency list comes out sorted (its entries
    * below the row arrive first, then those above it, each increasing).
    */
  private[graphs] def fromPacked(n: Int, packed: Array[Long]): LocalGraph = {
    var m = 0
    var i = 0
    while (i < packed.length) {
      val u = packed(i) >>> 32
      val v = packed(i) & 0xFFFFFFFFL
      if (u != v) { packed(m) = math.min(u, v) << 32 | math.max(u, v); m += 1 }
      i += 1
    }
    java.util.Arrays.sort(packed, 0, m)
    var k = 0
    i = 0
    while (i < m) {
      if (k == 0 || packed(i) != packed(k - 1)) { packed(k) = packed(i); k += 1 }
      i += 1
    }
    val offsets = new Array[Int](n + 1)
    i = 0
    while (i < k) { offsets((packed(i) >>> 32).toInt + 1) += 1; offsets(packed(i).toInt + 1) += 1; i += 1 }
    i = 0
    while (i < n) { offsets(i + 1) += offsets(i); i += 1 }
    val cursor = offsets.clone()
    val adj = new Array[Int](2 * k)
    i = 0
    while (i < k) {
      val u = (packed(i) >>> 32).toInt
      val v = packed(i).toInt
      adj(cursor(u)) = v; cursor(u) += 1
      adj(cursor(v)) = u; cursor(v) += 1
      i += 1
    }
    new LocalGraph(n, offsets, adj)
  }

  /** Collect a canonical (src < dst) DataFrame edge list into a LocalGraph.
    * Vertex ids are remapped to 0..n-1; returns the new-id -> original-id map.
    * Intended for graphs that comfortably fit on the driver.
    */
  def fromDataFrame(edges: DataFrame): (LocalGraph, Array[Long]) = {
    val rows = edges.select("src", "dst").collect()
    val pairs = rows.map(r => (r.getLong(0), r.getLong(1)))
    val ids = pairs.iterator.flatMap(p => Iterator(p._1, p._2)).toArray.distinct.sorted
    val idx = ids.zipWithIndex.toMap
    val es = pairs.map { case (u, v) => (idx(u), idx(v)) }
    (fromEdges(ids.length, es), ids)
  }
}
