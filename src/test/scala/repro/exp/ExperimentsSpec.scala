package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.graphs.TestGraphs

/** The algorithm and policy dispatch that the experiment tables call. */
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
}
