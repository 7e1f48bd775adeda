package repro.giraph

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.HashPartition
import repro.graphs.{GraphGen, TestGraphs}

/** The BSP cluster cost model. */
class GiraphSimSpec extends AnyFunSuite {

  private def loadsFor(scale: Int, k: Int, seed: Long = 61) = {
    val g = GraphGen.rmatLocal(scale, 8, seed = seed)
    (g, GiraphSim.loads(g, HashPartition.partition(g.n, k), k))
  }

  test("loads accounts every edge exactly once") {
    val g = GraphGen.rmatLocal(8, 4, seed = 51)
    val assign = Array.tabulate(g.n)(v => v % 3)
    val GiraphSim.Loads(vc, internal, cutEnds) = GiraphSim.loads(g, assign, 3)
    assert(vc.sum == g.n)
    assert(internal.sum + cutEnds.sum / 2 == g.numEdges)
  }

  test("loads: single part has zero cut ends") {
    val g = GraphGen.rmatLocal(7, 4, seed = 52)
    val GiraphSim.Loads(_, internal, cutEnds) = GiraphSim.loads(g, Array.fill(g.n)(0), 1)
    assert(cutEnds.forall(_ == 0))
    assert(internal(0) == g.numEdges)
  }

  test("simulate is deterministic in the seed") {
    val (_, l) = loadsFor(9, 4)
    val a = GiraphSim.simulate(l, Workloads.PageRank, seed = 3)
    val b = GiraphSim.simulate(l, Workloads.PageRank, seed = 3)
    assert(a == b)
  }

  test("noise seed changes the realization but not the scale") {
    val (_, l) = loadsFor(9, 4)
    val a = GiraphSim.simulate(l, Workloads.PageRank, seed = 3)
    val b = GiraphSim.simulate(l, Workloads.PageRank, seed = 4)
    assert(a != b)
    assert(math.abs(a.runtimeMean - b.runtimeMean) / a.runtimeMean < 0.1)
  }

  test("single worker has zero communication") {
    val g = GraphGen.rmatLocal(8, 4, seed = 62)
    val l = GiraphSim.loads(g, Array.fill(g.n)(0), 1)
    val s = GiraphSim.simulate(l, Workloads.PageRank)
    assert(s.commMean == 0.0 && s.commMax == 0.0)
  }

  test("a fully local partition communicates less than hash") {
    val g = TestGraphs.plantedBisection(200, 0.1, 0.005, seed = 63)
    val ideal = Array.tabulate(g.n)(v => if (v < 200) 0 else 1)
    val hash = HashPartition.partition(g.n, 2)
    val si = GiraphSim.simulate(GiraphSim.loads(g, ideal, 2), Workloads.PageRank)
    val sh = GiraphSim.simulate(GiraphSim.loads(g, hash, 2), Workloads.PageRank)
    assert(si.commMean < sh.commMean)
  }

  test("an imbalanced partition has a larger max/mean runtime ratio") {
    val g = GraphGen.rmatLocal(10, 8, seed = 64)
    val balanced = HashPartition.partition(g.n, 4)
    val skewed = Array.tabulate(g.n)(v => if (v % 8 == 0) 1 else 0) // most on part 0
    val sb = GiraphSim.simulate(GiraphSim.loads(g, balanced, 4), Workloads.PageRank)
    val ss = GiraphSim.simulate(GiraphSim.loads(g, skewed, 4), Workloads.PageRank)
    assert(ss.runtimeMax / ss.runtimeMean > sb.runtimeMax / sb.runtimeMean)
  }

  test("total job time sums superstep maxima: more supersteps, more time") {
    val (_, l) = loadsFor(9, 4)
    val short = GiraphSim.simulate(l, Workloads.PageRank.copy(supersteps = 10), seed = 1)
    val long = GiraphSim.simulate(l, Workloads.PageRank.copy(supersteps = 30), seed = 1)
    assert(long.totalTime > 2.5 * short.totalTime)
  }

  test("message-heavier workloads cost more per superstep") {
    val (_, l) = loadsFor(9, 4)
    val pr = GiraphSim.simulate(l, Workloads.PageRank, seed = 1)
    val mf = GiraphSim.simulate(l, Workloads.MutualFriends, seed = 1)
    // runtime stats are per (worker, superstep) sample
    assert(mf.runtimeMean > pr.runtimeMean)
  }

  test("all four workloads are defined with positive constants") {
    Workloads.All.foreach { w =>
      assert(w.supersteps > 0 && w.msgsPerEdge > 0 && w.cVertex > 0 &&
             w.cMsg > 0 && w.cNet > 0 && w.bytesPerMsg > 0)
    }
    assert(Workloads.All.map(_.name).toSet == Set("PR", "CC", "HC", "MF"))
  }

  test("PageRank runs 30 supersteps and CC runs 50 (paper §4.2)") {
    assert(Workloads.PageRank.supersteps == 30)
    assert(Workloads.ConnectedComponents.supersteps == 50)
  }

  test("mean/std helpers") {
    assert(GiraphSim.mean(Array(1.0, 3.0)) == 2.0)
    assert(math.abs(GiraphSim.std(Array(1.0, 3.0)) - math.sqrt(2.0)) < 1e-12)
    assert(GiraphSim.std(Array(5.0)) == 0.0)
  }
}
