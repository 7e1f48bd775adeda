package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.ProjectionMethod.{Exact, OneShot}
import repro.exp.Experiments

/** Figures 8/9/10 (as tables) — GD parameter studies (§4.3).
  *
  * Paper's shape: step factor 2·√n/100 performs well (Fig 8); adaptive step
  * + vertex fixing preserves near-perfect balance and quality (Fig 9); exact
  * projection with generous imbalance is best, one-shot alternating is
  * comparable (Fig 10).
  */
class GDParamsBench extends AnyFunSuite {

  private lazy val steps = Experiments.stepSizeSweep()
  private lazy val adaptive = Experiments.adaptiveComparison()
  private lazy val projections = Experiments.projectionComparison()

  /** A Figure 9 row's (adaptive step, vertex fixing). */
  private def variant(r: Experiments.GDRow) = (r.cfg.adaptiveStep, r.cfg.vertexFixing)

  test("figure 8: sweep covers both graphs and five factors") {
    assert(steps.size == 10)
    assert(steps.map(_.cfg.stepFactor).distinct.sorted == Seq(0.5, 1.0, 2.0, 4.0, 8.0))
  }

  test("figure 8: factor 2 is within 3% of the best factor on each graph") {
    for (graph <- steps.map(_.graph).distinct) {
      val byFactor = steps.filter(_.graph == graph)
      val best = byFactor.map(_.locality).max
      val at2 = byFactor.find(_.cfg.stepFactor == 2.0).get.locality
      assert(at2 > best - 0.03, s"$graph: factor-2 $at2 vs best $best")
    }
  }

  test("figure 9: all three variants produce partitions") {
    // non-adaptive, adaptive, adaptive + fixing
    assert(adaptive.map(variant) == Seq((false, false), (true, false), (true, true)))
    adaptive.foreach(r => assert(r.locality > 0 && r.locality <= 1))
  }

  test("figure 9: adaptive + fixing achieves near-perfect balance") {
    val fix = adaptive.find(variant(_) == (true, true)).get
    assert(fix.maxImb <= 0.05, s"imbalance ${fix.maxImb}")
  }

  test("figure 9: adaptive + fixing quality is at least the plain variants'") {
    val fix = adaptive.find(variant(_) == (true, true)).get.locality
    val non = adaptive.find(variant(_) == (false, false)).get.locality
    assert(fix > non - 0.05, s"fixing $fix vs non-adaptive $non")
  }

  test("figure 10: exact projection with generous imbalance beats tight imbalance") {
    val exact = projections.filter(_.cfg.projection == Exact)
    val tight = exact.find(_.cfg.eps == 0.01).get.locality
    val loose = exact.find(_.cfg.eps == 0.2).get.locality
    assert(loose >= tight - 0.02, s"loose $loose vs tight $tight")
  }

  test("figure 10: one-shot alternating is comparable to exact projection") {
    val ex = projections.filter(r => r.cfg.projection == Exact && r.cfg.eps == 0.05).head.locality
    val os = projections.filter(r => r.cfg.projection == OneShot && r.cfg.eps == 0.05).head.locality
    assert(math.abs(ex - os) < 0.08, s"exact $ex vs one-shot $os")
  }

  test("figure 10: every run respects its imbalance budget (with rounding slack)") {
    projections.foreach { r =>
      assert(r.maxImb <= r.cfg.eps + 0.03, s"${r.cfg.projection} eps=${r.cfg.eps}: imbalance ${r.maxImb}")
    }
  }
}
