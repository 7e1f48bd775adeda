package repro.core

/** Projection algorithms for the GD feasible region
  * `K = B_∞ ∩ ⋂_j S^j`, where `B_∞` is the unit cube and each `S^j` is a
  * slab `⟨w^(j), x⟩ ∈ [lo_j, hi_j]`.
  *
  * The paper's slabs are symmetric (`[-εW_j, +εW_j]`); the interval form
  * also covers the shifted constraints that arise under vertex fixing
  * (the fixed vertices contribute a constant `F_j`, so the free coordinates
  * must satisfy `⟨w, x⟩ ∈ [-εW_j − F_j, εW_j − F_j]`).
  *
  * Implemented methods (paper §2.2 / §3.1):
  *   - one-shot alternating projection (planes once, then cube) — the
  *     default inside GD iterations;
  *   - full alternating projection (until a feasible point is reached);
  *   - Dykstra's algorithm (converges to the true projection);
  *   - exact projection for d = 1 (binary search on the dual λ);
  *   - exact projection for d = 2 (sign-pattern enumeration + nested binary
  *     search — the practical form of Appendix A).
  */
object Projections {

  /** Truncated linear function [z] = min(1, max(-1, z)). */
  @inline def clip(z: Double): Double = if (z > 1.0) 1.0 else if (z < -1.0) -1.0 else z

  def dot(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  def dist(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    math.sqrt(s)
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

  /** Project onto the slab ⟨w, x⟩ ∈ [lo, hi] (nearest boundary if outside). */
  def projectSlab(x: Array[Double], w: Array[Double], lo: Double, hi: Double): Array[Double] = {
    val s = dot(w, x)
    if (s >= lo && s <= hi) x.clone()
    else projectPlane(x, w, if (s > hi) hi else lo)
  }

  def inBox(x: Array[Double], tol: Double = 1e-9): Boolean =
    x.forall(v => v >= -1.0 - tol && v <= 1.0 + tol)

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

  /** Solve Σ_i w_i · clip(y_i − λ·w_i) = c for λ by bisection (the function
    * is monotone non-increasing in λ since w_i ≥ 0). Returns λ. `c` must lie
    * in the achievable range [−Σ|w|, Σ|w|]; callers clamp.
    */
  private def solveLambda1D(y: Array[Double], w: Array[Double], c: Double): Double = {
    var lo = Double.MaxValue
    var hi = Double.MinValue
    var i = 0
    while (i < y.length) {
      if (w(i) > 0) {
        val a = (y(i) - 1.0) / w(i)
        val b = (y(i) + 1.0) / w(i)
        if (a < lo) lo = a
        if (b > hi) hi = b
      }
      i += 1
    }
    if (lo > hi) return 0.0 // all weights zero: constraint vacuous
    def h(lambda: Double): Double = {
      var s = 0.0
      var i = 0
      while (i < y.length) { s += w(i) * clip(y(i) - lambda * w(i)); i += 1 }
      s
    }
    // h(lo) = +Σw (max), h(hi) = −Σw (min); bisect to machine precision.
    var l = lo; var r = hi
    var it = 0
    while (it < 200 && r - l > 1e-15 * (1.0 + math.abs(l) + math.abs(r))) {
      val m = 0.5 * (l + r)
      if (h(m) >= c) l = m else r = m
      it += 1
    }
    0.5 * (l + r)
  }

  /** Exact projection for d = 1 onto `B_∞ ∩ {⟨w,x⟩ ∈ [lo, hi]}`
    * (Section 2.2, "Projection for d = 1"): O(n log(1/δ)).
    */
  def exact1D(y: Array[Double], w: Array[Double], lo: Double, hi: Double): Array[Double] = {
    val x0 = projectBox(y)
    val s = dot(w, x0)
    if (s >= lo && s <= hi) return x0
    val wsum = w.map(math.abs).sum
    val c0 = if (s > hi) hi else lo
    val c = math.max(-wsum, math.min(wsum, c0)) // clamp to achievable range
    val lambda = solveLambda1D(y, w, c)
    val out = new Array[Double](y.length)
    var i = 0
    while (i < y.length) { out(i) = clip(y(i) - lambda * w(i)); i += 1 }
    out
  }

  /** Exact projection for d = 2 onto `B_∞ ∩ S¹ ∩ S²` via enumeration of the
    * KKT sign patterns (3^2 cases, Proposition 2.1) and nested binary search
    * on (λ1, λ2) (Appendix A, implemented with bisection instead of the
    * region walk — same fixed point, O(n log² (1/δ)) per call).
    *
    * Returns the feasible candidate closest to y. Feasibility tolerance is
    * scaled to the weight magnitudes.
    */
  def exact2D(y: Array[Double], w1: Array[Double], w2: Array[Double],
              lo1: Double, hi1: Double, lo2: Double, hi2: Double): Array[Double] = {
    val n = y.length
    val w2sumAbs = w2.map(math.abs).sum
    val w1sumAbs = w1.map(math.abs).sum
    val tol1 = 1e-7 * (1.0 + w1sumAbs)
    val tol2 = 1e-7 * (1.0 + w2sumAbs)

    def feasible(x: Array[Double]): Boolean = {
      val s1 = dot(w1, x); val s2 = dot(w2, x)
      s1 >= lo1 - tol1 && s1 <= hi1 + tol1 && s2 >= lo2 - tol2 && s2 <= hi2 + tol2
    }

    var best: Array[Double] = null
    var bestDist = Double.MaxValue
    def consider(x: Array[Double]): Unit =
      if (feasible(x)) {
        val d = dist(x, y)
        if (d < bestDist) { bestDist = d; best = x }
      }

    // Pattern (0, 0): neither slab active.
    consider(projectBox(y))

    // Patterns with exactly one active slab: 1-D exact solve on that slab's
    // boundary, then check the other slab.
    for (c1 <- Seq(lo1, hi1)) {
      val cc = math.max(-w1sumAbs, math.min(w1sumAbs, c1))
      val lambda = solveLambda1D(y, w1, cc)
      consider(Array.tabulate(n)(i => clip(y(i) - lambda * w1(i))))
    }
    for (c2 <- Seq(lo2, hi2)) {
      val cc = math.max(-w2sumAbs, math.min(w2sumAbs, c2))
      val lambda = solveLambda1D(y, w2, cc)
      consider(Array.tabulate(n)(i => clip(y(i) - lambda * w2(i))))
    }

    // Patterns with both slabs active: nested bisection. Inner solve finds
    // λ2 for a given λ1 (targets c2); outer bisection drives Δ(λ1) → c1.
    def inner(lambda1: Double, c2: Double): Double = {
      val yShift = Array.tabulate(n)(i => y(i) - lambda1 * w1(i))
      val cc = math.max(-w2sumAbs, math.min(w2sumAbs, c2))
      solveLambda1D(yShift, w2, cc)
    }
    def xOf(l1: Double, l2: Double): Array[Double] =
      Array.tabulate(n)(i => clip(y(i) - l1 * w1(i) - l2 * w2(i)))
    def delta(lambda1: Double, c2: Double): Double =
      dot(w1, xOf(lambda1, inner(lambda1, c2)))

    for (c1 <- Seq(lo1, hi1); c2 <- Seq(lo2, hi2)) {
      // Expanding bracket for λ1: Δ is monotone (Appendix A); find ends with
      // opposite signs of Δ − c1, else the pattern is infeasible.
      var l = -1.0; var r = 1.0
      var dl = delta(l, c2) - c1
      var dr = delta(r, c2) - c1
      var grow = 0
      while (dl * dr > 0 && grow < 60) { l *= 2; r *= 2; dl = delta(l, c2) - c1; dr = delta(r, c2) - c1; grow += 1 }
      if (dl * dr <= 0) {
        var it = 0
        while (it < 100 && r - l > 1e-13 * (1.0 + math.abs(l) + math.abs(r))) {
          val m = 0.5 * (l + r)
          val dm = delta(m, c2) - c1
          if (dm * dl <= 0) { r = m; dr = dm } else { l = m; dl = dm }
          it += 1
        }
        val l1 = 0.5 * (l + r)
        consider(xOf(l1, inner(l1, c2)))
      }
    }

    // Fall back to Dykstra if numerical tolerances rejected everything
    // (e.g., a barely-reachable interval).
    if (best == null)
      dykstra(y, Array(w1, w2), Array(lo1, lo2), Array(hi1, hi2))
    else best
  }
}
