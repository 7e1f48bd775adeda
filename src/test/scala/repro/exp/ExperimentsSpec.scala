package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{GDConfig, LocalGD, ProjectionMethod, Weights}
import repro.graphs.{GraphOps, TestGraphs}

/** The algorithm and policy dispatch that the experiment tables call, and
  * the two sweeps under the tables.
  */
class ExperimentsSpec extends AnyFunSuite {

  private val k = 4
  private lazy val g = TestGraphs.plantedKCommunities(4, 40, 0.25, 0.01, seed = 13)

  for (algo <- Experiments.Algorithms) {
    test(s"algorithm $algo: parts in [0, k), the same on a second call") {
      val a = Experiments.algoAssign(algo, g, k)
      assert(a.length == g.n)
      assert(a.forall(p => p >= 0 && p < k), s"$algo part out of range")
      assert(Experiments.algoAssign(algo, g, k).toSeq == a.toSeq, s"$algo not repeatable")
    }
  }

  for (policy <- Experiments.Policies) {
    test(s"policy $policy: parts in [0, k), the same on a second call") {
      val a = Experiments.policyAssign(policy, g, k, eps = 0.03)
      assert(a.length == g.n)
      assert(a.forall(p => p >= 0 && p < k), s"$policy part out of range")
      assert(Experiments.policyAssign(policy, g, k, eps = 0.03).toSeq == a.toSeq, s"$policy not repeatable")
    }
  }

  test("an unknown algorithm or policy name is rejected") {
    intercept[IllegalArgumentException](Experiments.algoAssign("METIS", g, k))
    intercept[IllegalArgumentException](Experiments.policyAssign("METIS", g, k, eps = 0.03))
  }

  private def bits(v: Double): Long = java.lang.Double.doubleToRawLongBits(v)

  test("algoRuns: one row per (graph, k, algorithm), each from algoAssign, edge locality and imbalance") {
    val ks = Seq(2, 4)
    val rows = Experiments.algoRuns("algoRuns", Seq("communities" -> g), ks, Experiments.Algorithms)
    assert(rows.map(r => (r.graph, r.k, r.algo)) ==
      (for (k <- ks; algo <- Experiments.Algorithms) yield ("communities", k, algo)))
    rows.foreach { r =>
      val a = Experiments.algoAssign(r.algo, g, r.k)
      val what = s"${r.algo} k=${r.k}"
      assert(bits(r.locality) == bits(g.edgeLocality(a)), what)
      assert(bits(r.vertexImb) == bits(GraphOps.imbalanceLocal(a, Weights.local(g, Weights.Unit), r.k)), what)
      assert(bits(r.edgeImb) == bits(GraphOps.imbalanceLocal(a, Weights.local(g, Weights.Degree), r.k)), what)
    }
  }

  test("gdRuns: one row per (graph, config) in order, each a direct LocalGD.bipartition") {
    val graphs = Seq("communities" -> g, "bisection" -> TestGraphs.plantedBisection(40, 0.2, 0.02, seed = 17))
    val specs = Seq(Weights.Unit, Weights.Degree)
    val cfgs = Seq(
      GDConfig(eps = 0.05, iterations = 20, seed = 5),
      GDConfig(eps = 0.1, iterations = 20, adaptiveStep = false, vertexFixing = false, seed = 6),
      GDConfig(eps = 0.05, iterations = 20, projection = ProjectionMethod.Exact, stepFactor = 1.0, seed = 7))
    val rows = Experiments.gdRuns("gdRuns", graphs, specs, cfgs)
    val expected = for ((name, graph) <- graphs; cfg <- cfgs) yield (name, graph, cfg)
    assert(rows.map(r => (r.graph, r.cfg)) == expected.map { case (name, _, cfg) => (name, cfg) })
    rows.zip(expected).foreach { case (r, (name, graph, cfg)) =>
      val res = LocalGD.bipartition(graph, Weights.localAll(graph, specs), cfg)
      assert(bits(r.locality) == bits(res.locality), s"$name $cfg")
      assert(bits(r.maxImb) == bits(res.imbalances.max), s"$name $cfg")
    }
  }
}
