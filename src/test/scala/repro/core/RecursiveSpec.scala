package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graphs.{GraphGen, GraphOps, LocalGraph, TestGraphs}
import repro.baselines.HashPartition

/** Recursive k-way partitioning (§3.3). */
class RecursiveSpec extends AnyFunSuite {

  test("k must be a power of two") {
    val g = GraphGen.rmatLocal(6, 3)
    intercept[IllegalArgumentException] {
      RecursivePartitioner.partition(g, Weights.localAll(g, Seq(Weights.Unit)), 3, GDConfig())
    }
  }

  test("k=1 puts everything in part 0") {
    val g = GraphGen.rmatLocal(6, 3)
    val a = RecursivePartitioner.partition(g, Weights.localAll(g, Seq(Weights.Unit)), 1, GDConfig())
    assert(a.forall(_ == 0))
  }

  for (k <- Seq(2, 4, 8)) {
    test(s"k=$k: all parts used and balance within compounded eps") {
      val g = GraphGen.rmatLocal(10, 8, seed = 21)
      val ws = Weights.localAll(g, Seq(Weights.Unit, Weights.Degree))
      val a = RecursivePartitioner.partition(g, ws, k, GDConfig(eps = 0.02, seed = 5))
      assert(a.forall(p => p >= 0 && p < k))
      assert(a.toSet.size == k, "every part should be non-empty")
      val compounded = math.pow(1.02, math.log(k) / math.log(2)).toDouble - 1 + 0.05
      ws.foreach { w =>
        val imb = GraphOps.imbalanceLocal(a, w, k)
        assert(imb <= compounded, s"imbalance $imb > $compounded for k=$k")
      }
    }
  }

  test("k=4 on 4 planted communities recovers high locality") {
    val g = TestGraphs.plantedKCommunities(4, 50, 0.25, 0.01, seed = 7)
    val ws = Weights.localAll(g, Seq(Weights.Unit))
    val a = RecursivePartitioner.partition(g, ws, 4, GDConfig(eps = 0.05, seed = 5))
    val hash = HashPartition.partition(g.n, 4)
    assert(g.edgeLocality(a) > 0.6)
    assert(g.edgeLocality(a) > g.edgeLocality(hash) + 0.3)
  }

  test("recursion inherits full-graph degree weights (edge balance global)") {
    val g = GraphGen.rmatLocal(10, 8, seed = 23)
    val wDeg = Weights.local(g, Weights.Degree)
    val a = RecursivePartitioner.partition(g, Array(wDeg), 4, GDConfig(eps = 0.02, seed = 5))
    val imb = GraphOps.imbalanceLocal(a, wDeg, 4)
    assert(imb <= 0.15, s"global degree imbalance $imb")
  }

  test("deterministic in the seed") {
    val g = GraphGen.rmatLocal(8, 5, seed = 24)
    val ws = Weights.localAll(g, Seq(Weights.Unit))
    val a = RecursivePartitioner.partition(g, ws, 4, GDConfig(seed = 11))
    val b = RecursivePartitioner.partition(g, ws, 4, GDConfig(seed = 11))
    assert(a.toSeq == b.toSeq)
  }

  /** The recursion done sequentially: the same `LocalGD.sides` and
    * `inducedSubgraph` calls with the same seeds and the same draws (keyed
    * by the vertex's id in `g`), first half before second.
    */
  private def sequentialReference(g: LocalGraph, ws: Array[Array[Double]], k: Int, cfg: GDConfig): Array[Int] = {
    val assign = new Array[Int](g.n)
    def recurse(sub: LocalGraph, toOriginal: Array[Int], wsSub: Array[Array[Double]],
                parts: Int, base: Int, seed: Long): Unit =
      if (parts == 1 || sub.n == 0) toOriginal.foreach(v => assign(v) = base)
      else {
        val side = LocalGD.sides(sub, wsSub, cfg.copy(seed = seed), i => toOriginal(i))
        for (s <- 0 to 1) {
          val (gs, m) = sub.inducedSubgraph(side.map(_ == s))
          recurse(gs, m.map(toOriginal), wsSub.map(w => m.map(w)), parts / 2, base + s * parts / 2, seed * 31 + 1 + s)
        }
      }
    recurse(g, Array.range(0, g.n), ws, k, 0, cfg.seed)
    assign
  }

  private lazy val rmat10 = GraphGen.rmatLocal(10, 8, seed = 25)
  private lazy val rmat10Ws = Weights.localAll(rmat10, Seq(Weights.Unit, Weights.Degree))

  for (k <- Seq(2, 4, 8, 16)) {
    test(s"k=$k: parallel recursion equals the sequential reference for every vertex") {
      val cfg = GDConfig(eps = 0.03, seed = 26)
      val a = RecursivePartitioner.partition(rmat10, rmat10Ws, k, cfg)
      val ref = sequentialReference(rmat10, rmat10Ws, k, cfg)
      val differ = a.indices.count(v => a(v) != ref(v))
      assert(differ == 0, s"$differ of ${a.length} vertices differ")
    }
  }

  test("two concurrent calls each return the sequential call's parts") {
    val cfgs = Seq(GDConfig(eps = 0.03, seed = 27), GDConfig(eps = 0.05, seed = 28))
    val sequential = cfgs.map(c => RecursivePartitioner.partition(rmat10, rmat10Ws, 16, c))
    val results = new Array[Array[Int]](cfgs.length)
    val threads = cfgs.indices.map { i =>
      new Thread(() => results(i) = RecursivePartitioner.partition(rmat10, rmat10Ws, 16, cfgs(i)))
    }
    threads.foreach(_.start())
    threads.foreach(_.join())
    cfgs.indices.foreach(i => assert(results(i).sameElements(sequential(i)), s"call $i"))
  }

  test("k=16 is bit-identical on 1, 2 and 4 threads (RMAT scale 14, several chunks)") {
    val g = GraphGen.rmatLocal(14, 8, seed = 29)
    val ws = Weights.localAll(g, Seq(Weights.Unit, Weights.Degree))
    val cfg = GDConfig(eps = 0.03, seed = 30)
    def run(threads: Int): Array[Int] = InPool(threads)(RecursivePartitioner.partition(g, ws, 16, cfg))
    val one = run(1)
    assert(one.sameElements(run(2)), "2 threads")
    assert(one.sameElements(run(4)), "4 threads")
  }
}
