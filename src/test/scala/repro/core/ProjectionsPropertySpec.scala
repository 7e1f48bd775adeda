package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

/** Property-style tests for the projection operators, driven by ScalaCheck
  * generators sampled deterministically (no scalatest-plus bridge needed
  * offline).
  */
class ProjectionsPropertySpec extends AnyFunSuite {
  import Projections._
  import ReferenceProjections._

  private val vecGen: Gen[Array[Double]] =
    for {
      n <- Gen.choose(3, 40)
      xs <- Gen.listOfN(n, Gen.choose(-4.0, 4.0))
    } yield xs.toArray

  /** Deterministic sample stream from a ScalaCheck generator. */
  private def samples[A](g: Gen[A], count: Int, seed: Long): Seq[A] =
    (0 until count).flatMap(i => g.apply(Gen.Parameters.default, Seed(seed + i)))

  /** The exact projection of `y` onto the cube and the slabs `|⟨w_j, x⟩| ≤ lims_j`. */
  private def exact(y: Array[Double], ws: Array[Array[Double]], lims: Array[Double]): Array[Double] =
    ExactProjection(y, ws, lims.map(-_), lims)

  private def weightsLike(y: Array[Double], seed: Long): Array[Double] = {
    val rng = new scala.util.Random(seed)
    Array.fill(y.length)(0.05 + rng.nextDouble() * 2)
  }

  test("property: clip output is always in [-1, 1] and identity inside") {
    samples(Gen.choose(-1e6, 1e6), 200, 1).foreach { z =>
      val c = clip(z)
      assert(c >= -1.0 && c <= 1.0)
      if (z >= -1 && z <= 1) assert(c == z)
    }
  }

  test("property: projectBox is idempotent") {
    samples(vecGen, 50, 2).foreach { y =>
      val p = projectBox(y)
      assert(projectBox(p).toSeq == p.toSeq)
    }
  }

  test("property: plane projection lands on the plane and is closest") {
    samples(vecGen, 50, 3).foreach { y =>
      val w = weightsLike(y, 1)
      val target = 0.2 * w.sum
      val p = projectPlane(y, w, target)
      assert(math.abs(dot(w, p) - target) < 1e-6 * (1 + math.abs(target)))
      val other = projectPlane(Array.fill(y.length)(0.3), w, target)
      assert(dist(y, p) <= dist(y, other) + 1e-9)
    }
  }

  test("property: exact1D output is feasible") {
    samples(vecGen, 50, 4).zipWithIndex.foreach { case (y, i) =>
      val w = weightsLike(y, 10 + i)
      val eps = 0.01 + (i % 10) * 0.04
      val lim = eps * w.sum
      val x = exact(y, Array(w), Array(lim))
      assert(inBox(x, 1e-9))
      assert(math.abs(dot(w, x)) <= lim + 1e-6 * (1 + lim))
    }
  }

  test("property: exact1D never does worse than the always-feasible origin") {
    samples(vecGen, 50, 5).zipWithIndex.foreach { case (y, i) =>
      val w = weightsLike(y, 20 + i)
      val lim = 0.1 * w.sum
      val x = exact(y, Array(w), Array(lim))
      val zero = Array.fill(y.length)(0.0)
      assert(dist(x, y) <= dist(zero, y) + 1e-9)
    }
  }

  test("property: exact2D output is feasible") {
    samples(vecGen, 30, 6).zipWithIndex.foreach { case (y, i) =>
      val w1 = weightsLike(y, 30 + i)
      val w2 = weightsLike(y, 60 + i)
      val eps = 0.05 + (i % 8) * 0.04
      val l1 = eps * w1.sum; val l2 = eps * w2.sum
      val x = exact(y, Array(w1, w2), Array(l1, l2))
      assert(inBox(x, 1e-6))
      assert(math.abs(dot(w1, x)) <= l1 + 1e-5 * (1 + l1))
      assert(math.abs(dot(w2, x)) <= l2 + 1e-5 * (1 + l2))
    }
  }

  for (d <- 3 to 4) {
    test(s"property: exact output is feasible at d=$d") {
      samples(vecGen, 30, 6 + 10 * d).zipWithIndex.foreach { case (y, i) =>
        val ws = Array.tabulate(d)(j => weightsLike(y, 100 * d + 30 * j + i))
        val eps = 0.05 + (i % 8) * 0.04
        val lims = ws.map(eps * _.sum)
        val x = exact(y, ws, lims)
        assert(inBox(x, 1e-6))
        ws.zip(lims).foreach { case (w, l) => assert(math.abs(dot(w, x)) <= l + 1e-5 * (1 + l)) }
      }
    }
  }

  test("property: dykstra output is feasible") {
    samples(vecGen, 30, 7).zipWithIndex.foreach { case (y, i) =>
      val w = weightsLike(y, 90 + i)
      val lim = 0.1 * w.sum
      val x = dykstra(y, Array(w), Array(-lim), Array(lim), maxIter = 3000)
      assert(inBox(x, 1e-6))
      assert(math.abs(dot(w, x)) <= lim + 1e-4 * (1 + lim))
    }
  }
}
