package repro.core

/** Projections onto the unit cube and the slabs `⟨w^(j), x⟩ ∈ [lo_j, hi_j]`
  * (the paper's `[-εW_j, +εW_j]`, shifted by `−F_j` under vertex fixing), on
  * whole vectors (paper §2.2 / §3.1): one-shot alternating (planes once,
  * then cube) and full alternating (until feasible). Inside the iterations
  * [[GDKernel]] takes the one-shot and the exact projection as one step.
  */
object Projections {

  /** Truncated linear function [z] = min(1, max(-1, z)). */
  @inline def clip(z: Double): Double = if (z > 1.0) 1.0 else if (z < -1.0) -1.0 else z

  def dot(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  /** Project onto the cube: coordinate-wise clip (returns a new array). */
  def projectBox(x: Array[Double]): Array[Double] = x.map(clip)

  /** Project onto the hyperplane ⟨w, x⟩ = target. */
  def projectPlane(x: Array[Double], w: Array[Double], target: Double): Array[Double] = {
    val ww = dot(w, w)
    if (ww == 0.0) return x.clone()
    val shift = (dot(w, x) - target) / ww
    val out = new Array[Double](x.length)
    var i = 0
    while (i < x.length) { out(i) = x(i) - shift * w(i); i += 1 }
    out
  }

  def slabsOk(x: Array[Double], ws: Array[Array[Double]],
              los: Array[Double], his: Array[Double], tol: Double): Boolean = {
    var j = 0
    while (j < ws.length) {
      val s = dot(ws(j), x)
      if (s < los(j) - tol || s > his(j) + tol) return false
      j += 1
    }
    true
  }

  /** One pass of the paper's alternating scheme: project onto each plane
    * ⟨w_j, x⟩ = mid_j sequentially, then onto the cube. `mids` defaults to
    * the slab centers (the paper projects onto ⟨w, x⟩ = 0).
    */
  def oneShotAlternating(y: Array[Double], ws: Array[Array[Double]],
                         mids: Array[Double]): Array[Double] = {
    var x = y.clone()
    var j = 0
    while (j < ws.length) { x = projectPlane(x, ws(j), mids(j)); j += 1 }
    projectBox(x)
  }

  /** Full alternating projection: repeat plane passes + cube until the point
    * is inside every slab (or maxIter). Converges to a feasible point but
    * not necessarily to the true projection.
    */
  def alternating(y: Array[Double], ws: Array[Array[Double]],
                  los: Array[Double], his: Array[Double],
                  maxIter: Int = 1000, tol: Double = 1e-9): Array[Double] = {
    val mids = Array.tabulate(ws.length)(j => (los(j) + his(j)) / 2)
    var x = y.clone()
    var it = 0
    while (it < maxIter) {
      x = oneShotAlternating(x, ws, mids)
      if (slabsOk(x, ws, los, his, tol)) return x
      it += 1
    }
    x
  }
}
