package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments

/** Figures 5/6 + §4.1 4-dim runs (as tables) — edge locality of Hash, GD,
  * and BLP.
  *
  * Paper's shape: GD and BLP far above Hash (which keeps only 1/k of edges);
  * GD above BLP, by 2–5% on public graphs (k ∈ {2,8}) and by a larger gap on
  * the FB graphs with many partitions; the 4-dimensional runs still reach
  * high locality (LJ 87.6%, Orkut 81.9% in the paper).
  */
class LocalityBench extends AnyFunSuite {

  private lazy val fig5 = Experiments.figure5()
  private lazy val fig6 = Experiments.figure6()
  private lazy val dim4 = Experiments.fourDim()

  private def get(rows: Seq[Experiments.AlgoRow], graph: String, algo: String, k: Int) =
    rows.find(r => r.graph == graph && r.algo == algo && r.k == k).get.locality

  test("figure 5: all 18 combinations reported") { assert(fig5.size == 18) }

  test("figure 5: hash locality is about 1/k") {
    fig5.filter(_.algo == "Hash").foreach { r =>
      assert(math.abs(r.locality - 1.0 / r.k) < 0.05, s"${r.graph} k=${r.k}: ${r.locality}")
    }
  }

  test("figure 5: GD and BLP dominate hash on every instance") {
    // RMAT's balanced-cut ceiling at k=2 is ~(a+d)/(a+b+c+d) ≈ 0.62 for our
    // parameters, so margins over hash are structurally smaller than on the
    // real social graphs (hash 0.5, paper GD 0.75-0.87).
    for (r <- fig5.filter(_.algo != "Hash")) {
      val hash = get(fig5, r.graph, "Hash", r.k)
      assert(r.locality > hash + 0.02, s"${r.algo} on ${r.graph} k=${r.k}: ${r.locality} vs $hash")
    }
  }

  test("figure 5: GD at least matches BLP on every public instance") {
    for (graph <- Seq("LiveJournal-lite", "Orkut-lite", "Twitter-lite"); k <- Seq(2, 8)) {
      val gd = get(fig5, graph, "GD", k)
      val blp = get(fig5, graph, "BLP", k)
      assert(gd > blp - 0.03, s"$graph k=$k: GD $gd vs BLP $blp")
    }
  }

  test("figure 6: all 12 combinations reported") { assert(fig6.size == 12) }

  test("figure 6: GD beats BLP with many partitions (paper: 5-20% gap)") {
    for (graph <- Seq("FB-lite-14", "FB-lite-15"); k <- Seq(16, 128)) {
      val gd = get(fig6, graph, "GD", k)
      val blp = get(fig6, graph, "BLP", k)
      assert(gd > blp, s"$graph k=$k: GD $gd vs BLP $blp")
    }
  }

  test("figure 6: hash cuts nearly everything at k=128 (paper: >99%)") {
    fig6.filter(r => r.algo == "Hash" && r.k == 128).foreach { r =>
      assert(r.locality < 0.02, s"${r.graph}: ${r.locality}")
    }
  }

  test("locality decreases with k for every algorithm") {
    for (graph <- Seq("FB-lite-14", "FB-lite-15"); algo <- Seq("Hash", "GD", "BLP")) {
      assert(get(fig6, graph, algo, 16) >= get(fig6, graph, algo, 128) - 0.02,
        s"$graph $algo")
    }
  }

  test("4-dim runs: high locality under four simultaneous constraints") {
    assert(dim4.size == 2)
    dim4.foreach { r =>
      assert(r.locality > 0.55, s"${r.graph}: locality ${r.locality}")
      assert(r.maxImb <= 0.03, s"${r.graph}: imbalance ${r.maxImb}")
    }
  }
}
