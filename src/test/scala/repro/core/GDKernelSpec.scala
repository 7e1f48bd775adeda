package repro.core

import java.lang.Double.doubleToRawLongBits
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable.ArrayBuffer

/** The per-block operations of [[GDKernel]] and its final projection. */
class GDKernelSpec extends AnyFunSuite {

  private val unit = Array(Array.fill(10)(1.0))

  /** Blocks of ten unit-weight vertices at x = 1, the first `free` of them
    * free: Σ x = 10 is far outside the slab |Σ x| ≤ 0.5. A shift maps the
    * last x and the α it is given to the next x by `pass`. The stub keeps every
    * x; as after [[GDKernel.shift]], its last statistic counts the vertices
    * whose x differs from the x the first shift started from, and from the
    * second shift on from two shifts back (or is always 1 if not `detect`).
    */
  private class Stub(free: Int, pass: (GDKernel.Rows, Array[Double], Array[Double]) => Array[Double],
                     detect: Boolean = true) extends GDKernel.Blocks {
    val xs = ArrayBuffer(Array.fill(10)(1.0))
    private val rows = GDKernel.rows(unit, xs.last, 0, 10)(_ >= free)
    def shifts: Int = xs.length - 1
    def stepStats(noise: Double): Array[Double] = ???
    def step(gamma: Double, alpha: Array[Double]): Unit = ???
    def slabStats(): Array[Double] = {
      val back = xs(math.max(xs.length - 3, 0))
      rows.last = if (!detect) 1.0
        else xs.last.indices.count(i => doubleToRawLongBits(xs.last(i)) != doubleToRawLongBits(back(i))).toDouble
      GDKernel.slabStats(unit, xs.last, rows)
    }
    def shift(alpha: Array[Double]): Unit = xs += pass(rows, xs.last, alpha)
  }

  /** [[GDKernel.shift]] with the given `α` times `scale`. */
  private def kernelPass(scale: Double)(r: GDKernel.Rows, x: Array[Double], alpha: Array[Double]): Array[Double] = {
    val out = x.clone()
    GDKernel.shift(unit, out, r, alpha.map(_ * scale))
    out
  }

  test("final projection issues no shift when every vertex is fixed") {
    val stub = new Stub(0, kernelPass(1.0))
    GDKernel.finalProjection(stub, Array(10.0), GDConfig(eps = 0.05))
    assert(stub.shifts == 0)
  }

  test("final projection shifts a violated slab up to its pass budget") {
    // A hundredth of the plane step moves the free vertex by 0.1 a pass, so
    // x never repeats and the slab stays violated.
    val stub = new Stub(1, kernelPass(0.01))
    GDKernel.finalProjection(stub, Array(10.0), GDConfig(eps = 0.05, finalProjIters = 3))
    assert(stub.shifts == 3)
    assert(stub.xs.map(_(0)).distinct.length == 4)
  }

  // The plane step sends the one free vertex to −1 and leaves it there;
  // the other pass alternates it between 0.5 and 0.25 from the first pass.
  for ((name, pass) <- Seq[(String, (GDKernel.Rows, Array[Double], Array[Double]) => Array[Double])](
      "a fixed point" -> kernelPass(1.0),
      "a 2-cycle" -> ((_, x, _) => x.updated(0, if (x(0) == 0.5) 0.25 else 0.5))))
    test(s"a stopped final projection ends on the full budget's x: $name") {
      for (budget <- 4 to 11) {
        val cfg = GDConfig(eps = 0.05, finalProjIters = budget)
        val (stopped, full) = (new Stub(1, pass), new Stub(1, pass, detect = false))
        GDKernel.finalProjection(stopped, Array(10.0), cfg)
        GDKernel.finalProjection(full, Array(10.0), cfg)
        assert(full.shifts == budget)
        assert(stopped.shifts == 3 + (budget - 3) % 2, s"budget $budget")
        assert(stopped.xs.last.sameElements(full.xs.last), s"budget $budget")
      }
    }

  // ---- The repeat count that GDKernel.shift keeps in Rows ----

  test("shift counts the free rows that differ from the x it started from, then from two shifts back") {
    // Rows 1 and 4 fixed at 1. Each count below but the first and the last
    // differs from a count against the x of one shift back.
    val w = Array(Array.fill(5)(1.0))
    val fixed = Array(false, true, false, false, true)
    val x = Array(0.0, 1.0, 0.5, -1.0, 1.0)
    val r = GDKernel.rows(w, x, 0, 5)(fixed(_))
    val counts = Seq(0.25, -0.25, 0.25, 0.25, 0.0, -0.5).map { alpha =>
      GDKernel.shift(w, x, r, Array(alpha))
      r.last
    }
    // The free rows go (0, 0.5, −1) → (−0.25, 0.25, −1) → (0, 0.5, −0.75)
    // → (−0.25, 0.25, −1) → (−0.5, 0, −1) → (−0.5, 0, −1) → (0, 0.5, −0.5).
    assert(counts == Seq(2.0, 1.0, 0.0, 3.0, 2.0, 3.0))
    assert(x(1) == 1.0 && x(4) == 1.0)
  }

  /** [[GDKernel.Blocks]] of one range of `unit` weights, on the kernel's own
    * [[GDKernel.Rows]] and [[GDKernel.shift]].
    */
  private class OneRange(val x: Array[Double], fixed: Array[Boolean]) extends GDKernel.Blocks {
    private val rows = GDKernel.rows(unit, x, 0, x.length)(fixed(_))
    var shifts = 0
    def stepStats(noise: Double): Array[Double] = ???
    def step(gamma: Double, alpha: Array[Double]): Unit = ???
    def slabStats(): Array[Double] = GDKernel.slabStats(unit, x, rows)
    def shift(alpha: Array[Double]): Unit = { GDKernel.shift(unit, x, rows, alpha); shifts += 1 }
  }

  test("a range whose first pass returns its x stops the final projection after 1 + (budget - 1) % 2 shifts") {
    // Nine vertices fixed at 1 and one free at −1: the plane step pushes the
    // free one below −1, and the cube clips it back.
    for (budget <- 1 to 8) {
      val b = new OneRange(Array.tabulate(10)(i => if (i == 0) -1.0 else 1.0), Array.tabulate(10)(_ > 0))
      GDKernel.finalProjection(b, Array(10.0), GDConfig(eps = 0.05, finalProjIters = budget))
      assert(b.shifts == 1 + (budget - 1) % 2, s"budget $budget")
      assert(b.x(0) == -1.0)
    }
  }

  test("shift and step on a Rows.copy() leave the original's last, back, list and n unchanged") {
    val w = Array(Array.tabulate(6)(i => 1.0 + i))
    val x = Array(0.0, 0.5, -1.0, 0.9, -0.2, 1.0)
    val fixed = Array.tabulate(6)(_ == 5)
    val r = GDKernel.rows(w, x, 0, 6)(fixed(_))
    GDKernel.shift(w, x, r, Array(0.1))
    val (last, back, free, n) = (r.last, bits(r.back), r.free.toSeq, r.n)
    def unchanged(): Unit = {
      assert(r.last == last && bits(r.back) == back && r.free.toSeq == free && r.n == n)
      assert(r.fixed.sameElements(fixed))
    }

    val shifted = r.copy()
    GDKernel.shift(w, x.clone(), shifted, Array(-10.0))
    assert(shifted.last != last && bits(shifted.back) != back)
    unchanged()
    // x is about (−0.1, 0.3, −1, 0.5, −0.7, 1): a step of 0.5 along a unit
    // gradient fixes row 3 at 1.
    val stepped = r.copy()
    GDKernel.step(w, x.clone(), stepped, x, Array.fill(6)(1.0), 0.5, Array(0.0), 0.99)
    assert(stepped.n == n - 1 && stepped.last != last && stepped.fixed(3))
    unchanged()
  }

  // ---- Per-block operations against a loop over every row ----

  private val F = (d: Int) => 1 + 2 * d + d * (d + 1) / 2

  /** The statistics as one loop over `[lo, hi)` that tests `fixed(i)`, one
    * array entry per sum.
    */
  private def statsReference(w: Array[Array[Double]], x: Array[Double], fixed: Array[Boolean],
                             z: Array[Double], grad: Array[Double], last: Double, lo: Int, hi: Int): Array[Double] = {
    val d = w.length
    val v = new Array[Double](F(d) + d + 2)
    for (i <- lo until hi) {
      if (fixed(i)) for (j <- 0 until d) v(F(d) + j) += w(j)(i) * x(i)
      else {
        v(0) += grad(i) * grad(i)
        var k = 1 + 2 * d
        for (j <- 0 until d) {
          v(1 + j) += w(j)(i) * z(i)
          v(1 + d + j) += w(j)(i) * grad(i)
          for (l <- j until d) { v(k) += w(j)(i) * w(l)(i); k += 1 }
        }
        v(F(d) + d) += 1
      }
    }
    v(F(d) + d + 1) = last
    v
  }

  private def bits(v: Array[Double]): Seq[Long] = v.toSeq.map(doubleToRawLongBits)

  for (d <- Seq(1, 2, 4))
    test(s"list-based stats, slabStats and step match a loop over every row bit for bit (d = $d)") {
      val rng = new scala.util.Random(90 + d)
      val n = 3000
      // Magnitudes spread over many orders, so a different summation order shows.
      def spread() = Array.fill(n)(rng.nextGaussian() * math.exp(8 * rng.nextGaussian()))
      val bounds = Array(0, 1, 700, 700, 1900, 2999, n) // an empty range and one-row ranges
      val ranges = bounds.indices.init.map(c => (bounds(c), bounds(c + 1)))
      for (density <- Seq(0.0, 0.3, 0.9, 1.0)) {
        val w = Array.fill(d)(spread().map(math.abs))
        val fixed = Array.fill(n)(rng.nextDouble() < density)
        val x = Array.tabulate(n)(i => if (fixed(i)) (if (rng.nextBoolean()) 1.0 else -1.0) else 2 * rng.nextDouble() - 1)
        val (z, grad) = (spread(), spread())
        val zero = new Array[Double](n)
        for ((lo, hi) <- ranges) {
          val r = GDKernel.rows(w, x, lo, hi)(fixed(_))
          assert(r.fixed.toSeq == (lo until hi).map(fixed))
          assert(r.free.take(r.n).toSeq == (lo until hi).filter(!fixed(_)))
          r.last = 0.25
          assert(bits(GDKernel.stats(w, z, grad, r)) == bits(statsReference(w, x, fixed, z, grad, 0.25, lo, hi)))
          r.last = 3.0
          assert(bits(GDKernel.slabStats(w, x, r)) == bits(statsReference(w, x, fixed, x, zero, 3.0, lo, hi)))

          // A step that fixes some rows, against the same step on every row.
          val (gamma, alpha) = (0.3, Array.fill(d)(1e-3 * rng.nextGaussian()))
          val (x1, fixed1) = (x.clone(), fixed.clone())
          var sq = 0.0
          for (i <- lo until hi if !fixed(i)) {
            var y = z(i) + gamma * grad(i)
            for (j <- 0 until d) y -= alpha(j) * w(j)(i)
            y = Projections.clip(y)
            sq += (y - x(i)) * (y - x(i))
            fixed1(i) = math.abs(y) >= 0.95
            x1(i) = if (!fixed1(i)) y else if (y >= 0) 1.0 else -1.0
          }
          val x2 = x.clone()
          GDKernel.step(w, x2, r, z, grad, gamma, alpha, 0.95)
          assert(doubleToRawLongBits(r.last) == doubleToRawLongBits(sq))
          assert(bits(x2) == bits(x1) && r.fixed.toSeq == (lo until hi).map(fixed1))
          assert(r.free.take(r.n).toSeq == (lo until hi).filter(!fixed1(_)))
          assert(bits(GDKernel.stats(w, z, grad, r)) == bits(statsReference(w, x1, fixed1, z, grad, sq, lo, hi)))
          r.last = 0.0
          assert(bits(GDKernel.slabStats(w, x1, r)) == bits(statsReference(w, x1, fixed1, x1, zero, 0.0, lo, hi)))
        }
      }
    }

  test("sumInOrder adds in place in range order: reduceLeft's bits, inputs unchanged") {
    val rng = new scala.util.Random(17)
    // Magnitudes over many orders and both zeros; column 0 is all −0.0, so
    // its sum keeps the sign only if no +0.0 is added.
    def entry(k: Int) =
      if (k == 0) -0.0
      else rng.nextInt(5) match {
        case 0 => 0.0
        case 1 => -0.0
        case _ => (if (rng.nextBoolean()) 1 else -1) * math.pow(10, rng.between(-300, 300)) * rng.nextDouble()
      }
    for (ranges <- 1 to 8) {
      val parts = Array.fill(ranges)(Array.tabulate(12)(entry))
      val inputs = parts.map(bits)
      val expected = parts.reduceLeft((a, b) => Array.tabulate(a.length)(k => a(k) + b(k)))
      val sum = GDKernel.sumInOrder(parts)
      assert(bits(sum) == bits(expected), s"$ranges ranges")
      assert(parts.map(bits).toSeq == inputs.toSeq, s"$ranges ranges: an input changed")
      assert(!(sum eq parts(0)))
    }
  }
}
