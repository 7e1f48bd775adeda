package repro.core

import Projections.{dot, projectBox, projectPlane}

/** Reference projections for the tests: the distance, the slab projection,
  * the cube test and Dykstra's algorithm, the reference for the exact
  * projection. The in-loop and final projections are in [[GDKernel]]; the
  * whole-vector one-shot and alternating schemes are in [[Projections]].
  */
object ReferenceProjections {

  def dist(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    math.sqrt(s)
  }

  /** Project onto the slab ⟨w, x⟩ ∈ [lo, hi] (nearest boundary if outside). */
  def projectSlab(x: Array[Double], w: Array[Double], lo: Double, hi: Double): Array[Double] = {
    val s = dot(w, x)
    if (s >= lo && s <= hi) x.clone()
    else projectPlane(x, w, if (s > hi) hi else lo)
  }

  def inBox(x: Array[Double], tol: Double = 1e-9): Boolean =
    x.forall(v => v >= -1.0 - tol && v <= 1.0 + tol)

  /** Dykstra's algorithm over the cube and the d slabs — converges to the
    * true Euclidean projection onto their intersection.
    */
  def dykstra(y: Array[Double], ws: Array[Array[Double]],
              los: Array[Double], his: Array[Double],
              maxIter: Int = 2000, tol: Double = 1e-10): Array[Double] = {
    val n = y.length
    val d = ws.length
    val numSets = d + 1
    val corrections = Array.fill(numSets)(new Array[Double](n))
    var x = y.clone()
    var it = 0
    var change = Double.MaxValue
    while (it < maxIter && change > tol) {
      change = 0.0
      var s = 0
      while (s < numSets) {
        val tmp = new Array[Double](n)
        var i = 0
        while (i < n) { tmp(i) = x(i) + corrections(s)(i); i += 1 }
        val proj =
          if (s < d) projectSlab(tmp, ws(s), los(s), his(s))
          else projectBox(tmp)
        i = 0
        while (i < n) {
          corrections(s)(i) = tmp(i) - proj(i)
          val delta = proj(i) - x(i)
          change += delta * delta
          i += 1
        }
        x = proj
        s += 1
      }
      change = math.sqrt(change)
      it += 1
    }
    x
  }
}
