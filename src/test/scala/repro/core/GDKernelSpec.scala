package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The driver loop of [[GDKernel]] against stub blocks. */
class GDKernelSpec extends AnyFunSuite {

  /** Blocks of ten unit-weight vertices at x = 1, the first `free` of them
    * free: Σ x = 10 is far outside the slab |Σ x| ≤ 0.5. Counts shifts.
    */
  private class Stub(free: Int) extends GDKernel.Blocks {
    var shifts = 0
    def stepStats(noise: Double): Array[Double] = ???
    def step(gamma: Double, alpha: Array[Double]): Unit = ???
    def slabStats(): Array[Double] =
      GDKernel.slabStats(Array(Array.fill(10)(1.0)), Array.fill(10)(1.0), Array.tabulate(10)(_ >= free), 0, 10)
    def shift(alpha: Array[Double]): Unit = shifts += 1
  }

  test("final projection issues no shift when every vertex is fixed") {
    val stub = new Stub(free = 0)
    GDKernel.finalProjection(stub, Array(10.0), GDConfig(eps = 0.05))
    assert(stub.shifts == 0)
  }

  test("final projection shifts a violated slab up to its pass budget") {
    val stub = new Stub(free = 1)
    GDKernel.finalProjection(stub, Array(10.0), GDConfig(eps = 0.05, finalProjIters = 3))
    assert(stub.shifts == 3)
  }
}
