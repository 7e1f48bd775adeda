package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Correctness of the projection algorithms (paper §2.2, §3.1, Appendix A).
  *
  * Dykstra's algorithm provably converges to the true Euclidean projection
  * onto the intersection of convex sets, so it serves as the reference for
  * the exact projection ([[GDKernel.exactCoefficients]]) at d = 1…4.
  */
class ProjectionsSpec extends AnyFunSuite {
  import Projections._
  import ReferenceProjections._

  private def randInstance(rng: Random, n: Int, d: Int,
                           allowZeroWeights: Boolean = true) = {
    val y = Array.fill(n)(rng.nextDouble() * 6 - 3)
    val ws = Array.fill(d)(Array.fill(n) {
      if (allowZeroWeights && rng.nextDouble() < 0.1) 0.0
      else 0.1 + rng.nextDouble() * 2
    })
    val eps = 0.02 + rng.nextDouble() * 0.3
    val los = ws.map(w => -eps * w.sum)
    val his = ws.map(w => eps * w.sum)
    (y, ws, los, his)
  }

  private def feasible(x: Array[Double], ws: Array[Array[Double]],
                       los: Array[Double], his: Array[Double], tol: Double): Boolean =
    inBox(x, tol) && slabsOk(x, ws, los, his, tol)

  test("clip is the truncated linear function") {
    assert(clip(2.0) == 1.0 && clip(-5.0) == -1.0 && clip(0.3) == 0.3)
  }

  test("projectBox clips coordinate-wise") {
    assert(projectBox(Array(2.0, -3.0, 0.5)).toSeq == Seq(1.0, -1.0, 0.5))
  }

  test("projectPlane lands on the plane and moves orthogonally") {
    val w = Array(1.0, 2.0, 0.5)
    val x = Array(3.0, -1.0, 2.0)
    val p = projectPlane(x, w, 1.5)
    assert(math.abs(dot(w, p) - 1.5) < 1e-9)
    // displacement parallel to w
    val disp = Array.tabulate(3)(i => x(i) - p(i))
    val cross = disp(0) * w(1) - disp(1) * w(0)
    assert(math.abs(cross) < 1e-9)
  }

  test("projectPlane with zero weights is identity") {
    val x = Array(1.0, 2.0)
    assert(projectPlane(x, Array(0.0, 0.0), 5.0).toSeq == x.toSeq)
  }

  test("projectSlab is identity inside the slab") {
    val w = Array(1.0, 1.0)
    val x = Array(0.1, -0.05)
    assert(projectSlab(x, w, -1.0, 1.0).toSeq == x.toSeq)
  }

  test("projectSlab lands on the nearest boundary outside") {
    val w = Array(1.0, 1.0)
    val p = projectSlab(Array(2.0, 2.0), w, -1.0, 1.0)
    assert(math.abs(dot(w, p) - 1.0) < 1e-9)
  }

  // ---- exact d = 1 vs Dykstra ----
  for (trial <- 1 to 25) {
    test(s"exact1D equals the true projection (trial $trial)") {
      val rng = new Random(1000 + trial)
      val n = 5 + rng.nextInt(50)
      val (y, ws, los, his) = randInstance(rng, n, 1)
      val ex = ExactProjection(y, ws, los, his)
      assert(feasible(ex, ws, los, his, 1e-6), "exact projection at d=1: result infeasible")
      val dy = dykstra(y, ws, los, his, maxIter = 8000, tol = 1e-13)
      assert(feasible(dy, ws, los, his, 1e-5), "dykstra result infeasible")
      val dEx = dist(ex, y)
      val dDy = dist(dy, y)
      assert(dEx <= dDy + 1e-5, s"exact dist $dEx > dykstra dist $dDy")
      assert(math.abs(dEx - dDy) < 1e-4, s"distance mismatch: $dEx vs $dDy")
    }
  }

  // ---- exact d = 2 vs Dykstra ----
  for (trial <- 1 to 25) {
    test(s"exact2D equals the true projection (trial $trial)") {
      val rng = new Random(2000 + trial)
      val n = 5 + rng.nextInt(40)
      val (y, ws, los, his) = randInstance(rng, n, 2)
      val ex = ExactProjection(y, ws, los, his)
      assert(feasible(ex, ws, los, his, 1e-5), "exact projection at d=2: result infeasible")
      val dy = dykstra(y, ws, los, his, maxIter = 8000, tol = 1e-13)
      val dEx = dist(ex, y)
      val dDy = dist(dy, y)
      assert(dEx <= dDy + 1e-4, s"exact dist $dEx > dykstra dist $dDy")
      assert(math.abs(dEx - dDy) < 1e-3, s"distance mismatch: $dEx vs $dDy")
    }
  }

  // ---- exact d = 3 and d = 4 vs Dykstra, at the d = 2 tolerances ----
  for (d <- 3 to 4; trial <- 1 to 25) {
    test(s"exact projection at d=$d equals the true projection (trial $trial)") {
      val rng = new Random(1000 * (5 + d) + trial)
      val n = 5 + rng.nextInt(40)
      val (y, ws, los, his) = randInstance(rng, n, d)
      val ex = ExactProjection(y, ws, los, his)
      assert(feasible(ex, ws, los, his, 1e-5), "exact result infeasible")
      val dy = dykstra(y, ws, los, his, maxIter = 8000, tol = 1e-13)
      val dEx = dist(ex, y)
      val dDy = dist(dy, y)
      assert(dEx <= dDy + 1e-4, s"exact dist $dEx > dykstra dist $dDy")
      assert(math.abs(dEx - dDy) < 1e-3, s"distance mismatch: $dEx vs $dDy")
    }
  }

  // ---- idempotence: projecting a feasible point returns it ----
  for (trial <- 1 to 10) {
    test(s"projection of a feasible point is the identity (trial $trial)") {
      val rng = new Random(3000 + trial)
      val n = 5 + rng.nextInt(30)
      val ws = Array.fill(2)(Array.fill(n)(0.1 + rng.nextDouble()))
      // Construct a point well inside: small coordinates.
      val y = Array.fill(n)(rng.nextDouble() * 0.02 - 0.01)
      val los = ws.map(w => -0.5 * w.sum)
      val his = ws.map(w => 0.5 * w.sum)
      val e1 = ExactProjection(y, Array(ws(0)), Array(los(0)), Array(his(0)))
      assert(dist(e1, y) < 1e-9)
      val e2 = ExactProjection(y, ws, los, his)
      assert(dist(e2, y) < 1e-9)
    }
  }

  // ---- asymmetric intervals (vertex-fixing shifts) ----
  for (trial <- 1 to 10) {
    test(s"exact1D handles shifted intervals (trial $trial)") {
      val rng = new Random(4000 + trial)
      val n = 10 + rng.nextInt(30)
      val y = Array.fill(n)(rng.nextDouble() * 4 - 2)
      val w = Array.fill(n)(0.1 + rng.nextDouble())
      val shift = (rng.nextDouble() - 0.5) * w.sum * 0.4
      val lo = -0.1 * w.sum + shift
      val hi = 0.1 * w.sum + shift
      val ex = ExactProjection(y, Array(w), Array(lo), Array(hi))
      assert(inBox(ex, 1e-9))
      val s = dot(w, ex)
      assert(s >= lo - 1e-6 && s <= hi + 1e-6)
      val dy = dykstra(y, Array(w), Array(lo), Array(hi), maxIter = 8000, tol = 1e-13)
      assert(math.abs(dist(ex, y) - dist(dy, y)) < 1e-4)
    }
  }

  // ---- alternating / one-shot behaviour ----
  for (trial <- 1 to 8) {
    test(s"full alternating reaches a feasible point (trial $trial)") {
      val rng = new Random(5000 + trial)
      val n = 10 + rng.nextInt(40)
      val (y, ws, los, his) = randInstance(rng, n, 2)
      val alt = alternating(y, ws, los, his, maxIter = 2000)
      assert(feasible(alt, ws, los, his, 1e-6))
    }
  }

  test("one-shot alternating output is always inside the box") {
    val rng = new Random(6000)
    for (_ <- 1 to 20) {
      val n = 10 + rng.nextInt(40)
      val (y, ws, _, _) = randInstance(rng, n, 2)
      val os = oneShotAlternating(y, ws, Array(0.0, 0.0))
      assert(inBox(os, 0.0))
    }
  }

  test("dykstra with box only equals clip") {
    val rng = new Random(6100)
    val y = Array.fill(20)(rng.nextDouble() * 6 - 3)
    val d = dykstra(y, Array.empty, Array.empty, Array.empty)
    assert(dist(d, projectBox(y)) < 1e-9)
  }

  test("exact1D with infeasibly tight target saturates gracefully") {
    // interval far outside the reachable range [-Σw, Σw]
    val y = Array(0.0, 0.0)
    val w = Array(1.0, 1.0)
    val ex = ExactProjection(y, Array(w), Array(5.0), Array(6.0)) // unreachable: max <w,x> = 2
    assert(inBox(ex, 1e-9))
    assert(math.abs(dot(w, ex) - 2.0) < 1e-6) // pushed to the extreme point
  }

  test("exact1D with all-zero weights returns the clipped point") {
    val y = Array(2.0, -0.5)
    val ex = ExactProjection(y, Array(Array(0.0, 0.0)), Array(-0.1), Array(0.1))
    assert(ex.toSeq == Seq(1.0, -0.5))
  }

  test("identical rows with disjoint intervals: a point in the box within the pass budget") {
    // No point meets both slabs, so the dual is unbounded and every pass is spent.
    val rng = new Random(7100)
    val y = Array.fill(30)(rng.nextDouble() * 4 - 2)
    val w = Array.fill(30)(0.2 + rng.nextDouble())
    val ws = Array(w, w)
    val (lambda, passes) = GDKernel.exactCoefficients(ws, Array.range(0, 30), y, new Array[Double](30), 0.0,
      Array(-0.3 * w.sum, 0.1 * w.sum), Array(-0.1 * w.sum, 0.3 * w.sum), maxPasses = 40)
    assert(passes <= 40)
    assert(inBox(ExactProjection.at(y, ws, lambda), 0.0))
  }

  // ---- hand-verifiable cases ----
  test("1D: projecting (1,1) onto balance 0 with unit weights gives (0,0)... shifted") {
    // y = (1, 1), w = (1, 1), slab = {x1 + x2 = 0}: projection is (0, 0)
    val ex = ExactProjection(Array(1.0, 1.0), Array(Array(1.0, 1.0)), Array(0.0), Array(0.0))
    assert(dist(ex, Array(0.0, 0.0)) < 1e-6)
  }

  test("1D: box binds before the plane") {
    // y = (3, -1), w = (1, 1), target 0: unconstrained plane proj = (2, -2)
    // but box forces (1, -1), which satisfies the plane.
    val ex = ExactProjection(Array(3.0, -1.0), Array(Array(1.0, 1.0)), Array(0.0), Array(0.0))
    assert(dist(ex, Array(1.0, -1.0)) < 1e-6)
  }

  test("2D with identical constraints reduces to 1D") {
    val rng = new Random(7000)
    val n = 25
    val y = Array.fill(n)(rng.nextDouble() * 4 - 2)
    val w = Array.fill(n)(0.2 + rng.nextDouble())
    val lo = -0.05 * w.sum; val hi = 0.05 * w.sum
    val e1 = ExactProjection(y, Array(w), Array(lo), Array(hi))
    val e2 = ExactProjection(y, Array(w, w), Array(lo, lo), Array(hi, hi))
    assert(math.abs(dist(e1, y) - dist(e2, y)) < 1e-5)
  }
}
