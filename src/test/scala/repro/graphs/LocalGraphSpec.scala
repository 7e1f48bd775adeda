package repro.graphs

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** CSR construction and operation invariants. */
class LocalGraphSpec extends AnyFunSuite {

  test("fromEdges removes self-loops") {
    val g = LocalGraph.fromEdges(3, Array((0, 0), (0, 1), (1, 1)))
    assert(g.numEdges == 1)
    assert(g.degree(0) == 1 && g.degree(1) == 1 && g.degree(2) == 0)
  }

  test("fromEdges deduplicates parallel edges in both orientations") {
    val g = LocalGraph.fromEdges(2, Array((0, 1), (1, 0), (0, 1)))
    assert(g.numEdges == 1)
  }

  test("degree sum equals twice the edge count") {
    val g = GraphGen.rmatLocal(8, 4, seed = 3)
    assert((0 until g.n).map(g.degree).sum.toLong == 2 * g.numEdges)
  }

  test("edges roundtrip: fromEdges(edges) has identical edge set") {
    val g = GraphGen.rmatLocal(7, 4, seed = 5)
    val g2 = LocalGraph.fromEdges(g.n, g.edges)
    assert(g2.edges.toSeq == g.edges.toSeq)
  }

  test("adjacency lists are sorted and symmetric") {
    val g = GraphGen.rmatLocal(7, 6, seed = 11)
    for (u <- 0 until g.n) {
      val ns = (g.offsets(u) until g.offsets(u + 1)).map(g.adj)
      assert(ns == ns.sorted)
      ns.foreach { v =>
        val back = (g.offsets(v) until g.offsets(v + 1)).map(g.adj)
        assert(back.contains(u), s"edge $u-$v not symmetric")
      }
    }
  }

  private def assertSameCsr(g: LocalGraph, ref: LocalGraph): Unit = {
    assert(g.n == ref.n)
    assert(g.offsets.sameElements(ref.offsets))
    assert(g.adj.sameElements(ref.adj))
  }

  for ((name, scale, edgeFactor, seed, (a, b, c)) <- Seq(
      ("RMAT scale 10", 10, 8, 15L, (0.57, 0.19, 0.19)),
      ("LJ-lite", 14, 12, 101L, (0.57, 0.19, 0.19)),
      ("Twitter-lite skew, scale 12", 12, 35, 103L, (0.65, 0.16, 0.16)))) {
    test(s"rmatLocal builds the reference generator's CSR arrays ($name)") {
      assertSameCsr(GraphGen.rmatLocal(scale, edgeFactor, seed, a, b, c),
        ReferenceGraphs.rmatLocal(scale, edgeFactor, seed, a, b, c))
    }
  }

  test("fromEdges builds the reference CSR arrays on the TestGraphs fixtures, shuffled, reversed and repeated") {
    val rng = new Random(16)
    for (g <- Seq(TestGraphs.plantedBisection(40, 0.2, 0.05), TestGraphs.plantedKCommunities(4, 20, 0.3, 0.02),
                  TestGraphs.twoCliquesBridge(7), TestGraphs.path(30), TestGraphs.cycle(17), TestGraphs.star(25),
                  TestGraphs.complete(9), TestGraphs.grid(5, 6), LocalGraph.fromEdges(5, Array.empty))) {
      val es = g.edges
      val raw = rng.shuffle((es ++ es.map(_.swap) ++ es.take(5) ++ (0 until g.n by 3).map(v => (v, v))).toSeq).toArray
      assertSameCsr(LocalGraph.fromEdges(g.n, raw), ReferenceGraphs.fromEdges(g.n, raw))
      assertSameCsr(g, ReferenceGraphs.fromEdges(g.n, es))
    }
  }

  test("uncutEdges: all-same-part counts every edge; alternating path counts none") {
    val p = TestGraphs.path(10)
    assert(p.uncutEdges(Array.fill(10)(0)) == 9)
    assert(p.uncutEdges(Array.tabulate(10)(_ % 2)) == 0)
    assert(p.edgeLocality(Array.fill(10)(1)) == 1.0)
  }

  test("edgeLocality of empty graph is 1") {
    val g = LocalGraph.fromEdges(4, Array.empty)
    assert(g.edgeLocality(Array.fill(4)(0)) == 1.0)
  }

  for (seed <- 1 to 8) {
    test(s"inducedSubgraph keeps exactly the internal edges (seed=$seed)") {
      val rng = new Random(seed)
      val g = GraphGen.rmatLocal(7, 4, seed = seed)
      val keep = Array.fill(g.n)(rng.nextBoolean())
      val (sub, toOld) = g.inducedSubgraph(keep)
      assert(toOld.length == keep.count(identity))
      assert(sub.n == toOld.length)
      val expected = g.edges.filter { case (u, v) => keep(u) && keep(v) }
        .map { case (u, v) => (toOld.indexOf(u), toOld.indexOf(v)) }
        .map { case (u, v) => if (u < v) (u, v) else (v, u) }.sorted
      assert(sub.edges.toSeq.sorted == expected.toSeq)
    }
  }

  test("inducedSubgraph preserves original ids mapping") {
    val g = TestGraphs.twoCliquesBridge(5)
    val keep = Array.tabulate(g.n)(_ < 5)
    val (sub, toOld) = g.inducedSubgraph(keep)
    assert(toOld.toSeq == (0 until 5))
    assert(sub.numEdges == 10) // K5
  }

  test("grid graph structure") {
    val g = TestGraphs.grid(3, 4)
    assert(g.n == 12)
    assert(g.numEdges == 3 * 3 + 2 * 4) // horizontal + vertical
  }

  test("complete graph K6 has 15 edges, all degrees 5") {
    val g = TestGraphs.complete(6)
    assert(g.numEdges == 15)
    assert((0 until 6).forall(g.degree(_) == 5))
  }

  test("star graph has one hub") {
    val g = TestGraphs.star(10)
    assert(g.degree(0) == 9)
    assert((1 until 10).forall(g.degree(_) == 1))
  }

  test("cycle degrees are all 2") {
    val g = TestGraphs.cycle(17)
    assert((0 until 17).forall(g.degree(_) == 2))
    assert(g.numEdges == 17)
  }

  /** `inducedSubgraph` against `fromEdges` on the kept edges, remapped. */
  private def checkInduced(g: LocalGraph, keep: Array[Boolean]): Unit = {
    val (sub, toOld) = g.inducedSubgraph(keep)
    assert(toOld.toSeq == (0 until g.n).filter(keep), "new -> old map is the kept ids in order")
    assert(toOld.indices.drop(1).forall(i => toOld(i - 1) < toOld(i)))
    val oldToNew = toOld.zipWithIndex.toMap
    val kept = g.edges.collect { case (u, v) if keep(u) && keep(v) => (oldToNew(u), oldToNew(v)) }
    val expected = LocalGraph.fromEdges(toOld.length, kept)
    assert(sub.n == expected.n)
    assert(sub.offsets.sameElements(expected.offsets))
    assert(sub.adj.sameElements(expected.adj))
  }

  for (seed <- 1 to 6) {
    test(s"inducedSubgraph builds the CSR arrays of fromEdges on the kept edges (random mask, seed=$seed)") {
      val rng = new Random(seed)
      val g = GraphGen.rmatLocal(9, 6, seed = seed)
      val p = rng.nextDouble()
      checkInduced(g, Array.fill(g.n)(rng.nextDouble() < p))
    }
  }

  test("inducedSubgraph with an all-false mask is empty") {
    val g = GraphGen.rmatLocal(8, 4, seed = 12)
    checkInduced(g, Array.fill(g.n)(false))
    assert(g.inducedSubgraph(Array.fill(g.n)(false))._1.n == 0)
  }

  test("inducedSubgraph with an all-true mask is the graph itself") {
    val g = GraphGen.rmatLocal(8, 4, seed = 13)
    checkInduced(g, Array.fill(g.n)(true))
    val (sub, toOld) = g.inducedSubgraph(Array.fill(g.n)(true))
    assert(sub.offsets.sameElements(g.offsets) && sub.adj.sameElements(g.adj))
    assert(toOld.toSeq == (0 until g.n))
  }

  test("inducedSubgraph keeps vertices the mask leaves isolated") {
    val star = TestGraphs.star(12)
    checkInduced(star, Array.tabulate(12)(_ != 0)) // no hub: 11 isolated leaves
    assert(star.inducedSubgraph(Array.tabulate(12)(_ != 0))._1.numEdges == 0)
    val path = TestGraphs.path(15)
    checkInduced(path, Array.tabulate(15)(_ % 3 != 1)) // isolated and paired vertices
    checkInduced(GraphGen.rmatLocal(8, 2, seed = 14), Array.tabulate(256)(_ % 2 == 0))
  }

  test("inducedSubgraph allocates its output arrays, one n-int map and at most 64 KB more") {
    val g = GraphGen.rmatLocal(12, 16, seed = 16)
    val rng = new Random(16)
    val keep = Array.fill(g.n)(rng.nextBoolean())
    val threads = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    g.inducedSubgraph(keep) // warm-up
    val before = threads.getCurrentThreadAllocatedBytes
    val (sub, toOld) = g.inducedSubgraph(keep)
    val allocated = threads.getCurrentThreadAllocatedBytes - before
    val outputs = 4L * (sub.offsets.length + sub.adj.length + toOld.length)
    assert(allocated <= outputs + 4L * g.n + 64 * 1024,
      s"$allocated bytes for ${sub.adj.length} of ${g.adj.length} adjacency entries")
  }
}
