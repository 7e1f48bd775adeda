package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** Figure 11 (as table) — wall-clock of the distributed GD implementation on
  * FB-lite graphs of growing size (paper: near-linear machine-hours growth
  * up to hundreds of billions of edges on 128 workers; here: one local[*]
  * session, RMAT scales 13–17).
  */
class ScalabilityBench extends SparkSpec {

  // DistGD runs one Spark stage per iteration, but on local[*] the fixed cost
  // of a stage (one task per core, whatever the number of logical blocks)
  // still outweighs the per-edge work below ~1M edges, so
  // wall-clock is flat at the small end and starts tracking |E| at the top;
  // the testable claim at this scale is sub-quadratic growth.
  private lazy val rows = Experiments.scalability(spark, Seq(13, 14, 15, 16, 17), iterations = 20)

  test("all five scales complete") {
    assert(rows.size == 5)
    rows.foreach(r => assert(r.seconds > 0 && r.edges > 0))
  }

  test("graph sizes grow geometrically") {
    rows.sliding(2).foreach { case Seq(a, b) =>
      assert(b.edges > 1.7 * a.edges, s"${b.graph} vs ${a.graph}")
    }
  }

  test("runtime growth is sub-quadratic in |E| (near-linear, Fig 11)") {
    val first = rows.head
    val last = rows.last
    val edgeRatio = last.edges.toDouble / first.edges
    val timeRatio = last.seconds / first.seconds
    assert(timeRatio < math.pow(edgeRatio, 1.5),
      s"time ratio $timeRatio vs edge ratio $edgeRatio")
  }
}
