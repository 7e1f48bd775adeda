package repro.core

import repro.SplitMix.{gaussian, mix, uniform}

/** Algorithm 1 of the paper with the practical choices of §3.2, once for
  * both executors: noise at t = 0, the one-shot alternating (or the exact)
  * projection, the adaptive step, vertex fixing, the final projection,
  * randomized rounding and balance repair.
  *
  * The driver ([[run]]) sees the vertices only through [[Blocks]].
  * [[LocalGD]] holds them as one block of arrays, [[DistGD]] as an RDD of
  * blocks; both apply the per-block operations below, each to the [[Rows]]
  * of a row range of a block's arrays (a `LocalGD` chunk of rows, or the
  * own rows of a `DistGD` block), so they take the same steps and draws, up
  * to the order in which the ranges' sums are added. A range's [[Rows]] is
  * the one record of its fixed set and of its GD bookkeeping, so the
  * executors hold only `x`. The operations visit the free rows of a range
  * only, from its list of them; the sums that change only with the fixed
  * set (the Gram entries and `F`) are kept with the list and summed again
  * only for a range whose fixed set changed. Every sum adds the same terms
  * in the same row order as a loop over the whole range that skips the
  * fixed rows.
  *
  * The one-shot projection is solved in closed form: projecting
  * `y = z + γ·grad` onto the planes `⟨w_j, y⟩ = −F_j` one after another
  * (the slab centres, shifted by the weight `F_j` of the fixed vertices)
  * is `y ← y − Σ_j α_j·w_j` on the free vertices, with `α` from the sums
  * over them `S_j = ⟨w_j, z⟩`, `T_j = ⟨w_j, grad⟩` and `G_jl = ⟨w_j, w_l⟩`.
  */
object GDKernel {

  /** The vertices of one run, in blocks. Each call is one pass over every
    * block; statistics are summed over the blocks.
    */
  trait Blocks {
    /** Sets `z = x`, plus `noise·`[[gauss]] on the free vertices, and
      * `grad = A·z`; returns [[stats]].
      */
    def stepStats(noise: Double): Array[Double]
    /** [[step]] from the last `z` and `grad`. */
    def step(gamma: Double, alpha: Array[Double]): Unit
    /** [[slabStats]] of `x`. */
    def slabStats(): Array[Double]
    /** [[shift]] of `x`: one alternating-projection pass. */
    def shift(alpha: Array[Double]): Unit
  }

  private def gramAt(d: Int): Int = 1 + 2 * d
  private def fixedAt(d: Int): Int = gramAt(d) + d * (d + 1) / 2
  private def freeAt(d: Int): Int = fixedAt(d) + d

  /** `F_j`, the weight of the fixed vertices, from a [[stats]] vector. */
  def fixedWeight(v: Array[Double], d: Int): Array[Double] = v.slice(fixedAt(d), fixedAt(d) + d)

  /** `|x| ≥ fixAt` fixes a vertex: 0.99 under vertex fixing (§3.2). */
  def fixAt(cfg: GDConfig): Double = if (cfg.vertexFixing) 0.99 else Double.PositiveInfinity

  /** Standard normal draw of vertex `id`: its noise at t = 0. */
  def gauss(seed: Long, id: Long): Double = gaussian(mix(seed, id))

  /** Adds `noise·`[[gauss]] of vertex `id(i)` to `z(i)` for every free row `i` of `r`. */
  def addNoise(z: Array[Double], r: Rows, noise: Double, seed: Long, id: Int => Long): Unit =
    for (k <- 0 until r.n) { val i = r.free(k); z(i) += noise * gauss(seed, id(i)) }

  /** Randomized rounding (§3.1): side 1 with probability `(x + 1)/2`, drawn
    * from `(seed, id)`; an integral vertex, as a fixed one is, takes its sign.
    */
  def side(seed: Long, id: Long, x: Double): Int =
    if (math.abs(x) >= 1.0 - 1e-12) { if (x >= 0) 1 else 0 }
    else if (uniform(mix(seed * 31 + 7, id)) < (x + 1.0) / 2.0) 1
    else 0

  // ---- Per-block operations ----

  /** The rows `[lo, hi)` of a block (a `LocalGD` chunk, or the own or the
    * ghost rows of a `DistGD` block) as the operations below see them, with
    * the range's one record of its fixed set and its GD bookkeeping:
    *  - `fixed(i − lo)`: whether row `i` is fixed;
    *  - `free(0 until n)`: the other rows, increasing;
    *  - `fixedSums`: the statistics that change only with the free set, the
    *    Gram upper triangle over the free rows, then `F` over the fixed ones;
    *  - `last`: the squared length of the range's part of the last [[step]],
    *    or after a [[shift]] the number of free rows that it changed against
    *    `back`;
    *  - `back`: made by the first [[shift]], the free rows' `x` in list
    *    order that the next shift compares against.
    * Only [[step]] and [[move]] fix rows: they mark them in `fixed` and
    * drop them from `free` in place, and [[step]] sums `fixedSums` again
    * into a new array, so a [[copy]] may share that.
    */
  final class Rows(val lo: Int, val hi: Int, val fixed: Array[Boolean], val free: Array[Int], var n: Int,
                   var fixedSums: Array[Double], var last: Double = 0.0,
                   var back: Array[Double] = null) extends Serializable {
    /** A copy that [[step]] and [[shift]] change without touching this one. */
    def copy(): Rows = new Rows(lo, hi, fixed.clone(), free.clone(), n, fixedSums, last, if (back == null) null else back.clone())
  }

  /** The [[Rows]] of `[lo, hi)`, the rows `i` with `isFixed(i)` fixed; `F` from `x`. */
  def rows(w: Array[Array[Double]], x: Array[Double], lo: Int, hi: Int)(isFixed: Int => Boolean): Rows = {
    val fixed = new Array[Boolean](hi - lo)
    val free = new Array[Int](hi - lo)
    var n = 0
    var i = lo
    while (i < hi) { if (isFixed(i)) fixed(i - lo) = true else { free(n) = i; n += 1 }; i += 1 }
    val r = new Rows(lo, hi, fixed, free, n, null)
    r.fixedSums = fixedSums(w, x, r)
    r
  }

  /** The Gram upper triangle over the free rows of `r`, then `F` over its
    * fixed ones.
    */
  private def fixedSums(w: Array[Array[Double]], x: Array[Double], r: Rows): Array[Double] = {
    val d = w.length
    val m = d * (d + 1) / 2
    val v = new Array[Double](m + d)
    // Entry e of the triangle is G(js(e), ls(e)). Three entries to a pass,
    // as the adds of a pass are bound by latency; a short last group repeats
    // its last entry.
    val js = new Array[Int](m)
    val ls = new Array[Int](m)
    var e = 0
    for (j <- 0 until d; l <- j until d) { js(e) = j; ls(e) = l; e += 1 }
    e = 0
    while (e < m) {
      val e1 = math.min(e + 1, m - 1)
      val e2 = math.min(e + 2, m - 1)
      val a0 = w(js(e)); val b0 = w(ls(e))
      val a1 = w(js(e1)); val b1 = w(ls(e1))
      val a2 = w(js(e2)); val b2 = w(ls(e2))
      var s0 = 0.0
      var s1 = 0.0
      var s2 = 0.0
      var k = 0
      while (k < r.n) {
        val i = r.free(k)
        s0 += a0(i) * b0(i)
        s1 += a1(i) * b1(i)
        s2 += a2(i) * b2(i)
        k += 1
      }
      v(e) = s0; v(e1) = s1; v(e2) = s2
      e += 3
    }
    // One pass for all of F: the test of the mask is what costs here.
    var i = r.lo
    while (i < r.hi) {
      if (r.fixed(i - r.lo)) { var j = 0; while (j < d) { v(m + j) += w(j)(i) * x(i); j += 1 } }
      i += 1
    }
    v
  }

  /** Over the free rows of `r` `‖grad‖²`, `S`, `T` and the Gram upper
    * triangle, over the fixed ones `F`, then the free count and `r.last`.
    * Reads `z` and `grad` of free rows only.
    */
  def stats(w: Array[Array[Double]], z: Array[Double], grad: Array[Double], r: Rows): Array[Double] = {
    val d = w.length
    val v = new Array[Double](freeAt(d) + 2)
    val free = r.free
    val n = r.n
    var j = 0
    while (j < d) {
      // One pass per dimension. `‖grad‖²` rides along in each, the same sum
      // each time: the adds of a pass are bound by latency, not throughput.
      val wj = w(j)
      var gg = 0.0
      var s = 0.0
      var t = 0.0
      var k = 0
      while (k < n) {
        val i = free(k)
        val g = grad(i)
        gg += g * g
        s += wj(i) * z(i)
        t += wj(i) * g
        k += 1
      }
      v(0) = gg
      v(1 + j) = s
      v(1 + d + j) = t
      j += 1
    }
    System.arraycopy(r.fixedSums, 0, v, gramAt(d), r.fixedSums.length)
    v(freeAt(d)) = r.n
    v(freeAt(d) + 1) = r.last
    v
  }

  /** [[stats]] of `x` over `r` with a zero gradient. */
  def slabStats(w: Array[Array[Double]], x: Array[Double], r: Rows): Array[Double] = {
    val v = stats(w, x, x, r)
    v(0) = 0.0
    java.util.Arrays.fill(v, 1 + w.length, gramAt(w.length), 0.0)
    v
  }

  /** Moves every free row `i` of `r` to `clip(z + γ·grad − Σ_j α_j·w_j)` in
    * place in `x`, and fixes it at its sign if `|x| ≥ fixAt`: marks it in
    * `r.fixed` and drops it from `r`'s list; fixed rows stay. Sets `r.last`
    * to the squared step length over the rows that were free, measured
    * before fixing.
    */
  def step(w: Array[Array[Double]], x: Array[Double], r: Rows, z: Array[Double], grad: Array[Double],
           gamma: Double, alpha: Array[Double], fixAt: Double): Unit = {
    val n = r.n
    r.last = move(w, x, r, z, grad, gamma, alpha, fixAt)
    if (r.n < n) r.fixedSums = fixedSums(w, x, r)
  }

  /** The rows' part of [[step]]: moves and fixes the free rows of `r` as
    * [[step]] does and returns the squared step length, but leaves the sums
    * of `r` as they were. `DistGD` replays its blocks' steps on their copies
    * of other blocks' rows with it, which no sum reads.
    */
  def move(w: Array[Array[Double]], x: Array[Double], r: Rows, z: Array[Double], grad: Array[Double],
           gamma: Double, alpha: Array[Double], fixAt: Double): Double = {
    val free = r.free
    var sq = 0.0
    var m = 0
    var k = 0
    while (k < r.n) {
      val i = free(k)
      var y = z(i) + gamma * grad(i)
      var j = 0
      while (j < alpha.length) { y -= alpha(j) * w(j)(i); j += 1 }
      y = Projections.clip(y)
      val dx = y - x(i)
      sq += dx * dx
      if (math.abs(y) >= fixAt) { r.fixed(i - r.lo) = true; x(i) = if (y >= 0) 1.0 else -1.0 }
      else { x(i) = y; free(m) = i; m += 1 }
      k += 1
    }
    r.n = m
    sq
  }

  /** The `α` for [[step]] that makes it the exact projection (paper §2.2,
    * Prop. 2.1, Appendix A) of `y = z + γ·grad` onto the cube and the slabs
    * `⟨w_j, x⟩ ∈ [los_j, his_j]` over the vertices `free`: `clip(y − Σ_j λ_j·w_j)`
    * for the dual optimum `λ`, any d. Dual ascent: along `λ_j` the slope is
    * the residual `⟨w_j, x(λ)⟩ − c_j`, `c_j` = `his_j` if `λ_j > 0`, `los_j` if
    * `λ_j < 0`, else the interval's nearest end. A pass takes exact line
    * searches along each coordinate, then along the Newton direction of the
    * active slabs (Kiwiel, Math. Program. 112, 2008; Dai & Fletcher, Math.
    * Program. 106, 2006). Intervals are clamped to the achievable
    * `±Σ_free |w_j|`. Stops when every residual is within `1e-9·(1 + Σ_free |w_j|)`
    * or after `maxPasses` passes (no point of the cube meets all slabs).
    * Returns `λ` and the passes taken.
    */
  def exactCoefficients(w: Array[Array[Double]], free: Array[Int], z: Array[Double],
                        grad: Array[Double], gamma: Double, los: Array[Double], his: Array[Double],
                        maxPasses: Int = 100): (Array[Double], Int) = {
    val d = w.length
    /** `Σ_i f(i)` over the free vertices. */
    def total(f: Int => Double): Double = {
      var (r, k) = (0.0, 0)
      while (k < free.length) { r += f(free(k)); k += 1 }
      r
    }
    val reach = w.map(wj => total(i => math.abs(wj(i))))
    val sq = w.map(wj => total(i => wj(i) * wj(i)))
    val lo = Array.tabulate(d)(j => math.max(-reach(j), math.min(reach(j), los(j))))
    val hi = Array.tabulate(d)(j => math.max(-reach(j), math.min(reach(j), his(j))))
    val lambda = new Array[Double](d)
    val u = new Array[Double](z.length) // y − Σ_j λ_j·w_j on the free vertices
    val v = new Array[Double](z.length)
    val s = new Array[Double](d)        // ⟨w_j, clip(u)⟩
    val gram = Array.ofDim[Double](d, d)

    def residual(j: Int): Double = s(j) - (if (lambda(j) > 0) hi(j) else if (lambda(j) < 0) lo(j)
      else math.max(lo(j), math.min(hi(j), s(j))))

    /** `u`, `s` and `G` at the current `λ`. */
    def measure(): Unit = {
      for (i <- free) u(i) = z(i) + gamma * grad(i)
      for (j <- 0 until d; i <- free) u(i) -= lambda(j) * w(j)(i)
      for (j <- 0 until d) s(j) = total(i => w(j)(i) * Projections.clip(u(i)))
      for (j <- 0 until d; l <- 0 until d) gram(j)(l) = total(i => if (math.abs(u(i)) < 1) w(j)(i) * w(l)(i) else 0.0)
    }

    /** Moves `λ` by `t·e`, `t ≥ 0`, to the dual's maximum on that ray before
      * some `λ_j` changes sign (or to that `λ_j = 0`): the root of its slope
      * `g(t) = Σ_i v_i·clip(u_i − t·v_i) − Σ_j e_j·c_j`, `v = Σ_j e_j·w_j`.
      */
    def search(e: Array[Double]): Unit = {
      val toZero = Array.tabulate(d)(j => if (lambda(j) * e(j) < 0) -lambda(j) / e(j) else Double.PositiveInfinity)
      val c = (0 until d).map(j => e(j) * (if (lambda(j) > 0 || lambda(j) == 0 && e(j) > 0) hi(j) else lo(j))).sum
      for (i <- free) v(i) = 0.0
      for (j <- 0 until d if e(j) != 0; i <- free) v(i) += e(j) * w(j)(i)
      def g(t: Double): Double = total(i => v(i) * Projections.clip(u(i) - t * v(i))) - c
      def slope(t: Double): Double = -total(i => if (math.abs(u(i) - t * v(i)) < 1) v(i) * v(i) else 0.0)
      var (a, fa) = (0.0, g(0))
      if (fa > 0) {
        var last = 0.0 // g is constant past the last breakpoint
        for (i <- free if v(i) != 0) last = math.max(last, (u(i) + math.signum(v(i))) / v(i))
        var (b, t) = (math.min(last, toZero.min), toZero.min)
        var fb = g(b)
        if (fb < 0) { // Newton from the last point, else bisection, inside the bracket
          var (x, fx, steps) = (a, fa, 0)
          val tol = 1e-9 * fa + 1e-14 * (0 until d).map(j => math.abs(e(j)) * reach(j)).sum
          while (math.abs(fx) > tol && b - a > 1e-15 * (a + b) && steps < 200) {
            val newton = x - fx / slope(x)
            x = if (newton > a && newton < b) newton else 0.5 * (a + b)
            fx = g(x)
            steps += 1
            if (fx > 0) { a = x; fa = fx } else { b = x; fb = fx }
          }
          t = if (math.abs(fx) <= tol) x else a + fa * (b - a) / (fa - fb)
        } else if (t.isInfinite) t = b
        for (i <- free) u(i) -= t * v(i)
        for (j <- 0 until d) lambda(j) = if (toZero(j) == t) 0.0 else lambda(j) + t * e(j)
      }
    }

    measure()
    var passes = 0
    while (passes < maxPasses && (0 until d).exists(j => math.abs(residual(j)) > 1e-9 * (1 + reach(j)))) {
      for (j <- 0 until d; sign <- Seq(1.0, -1.0)) search(Array.tabulate(d)(l => if (l == j) sign else 0.0))
      measure()
      val r = Array.tabulate(d)(residual)
      search(newtonDirection(gram, r, Array.tabulate(d)(j => if (lambda(j) != 0 || r(j) != 0) sq(j) else 0.0)))
      measure()
      passes += 1
    }
    (lambda, passes)
  }

  /** Newton direction `δ` for the residuals `r` of the slabs with `sq_j > 0`,
    * 0 for the others: `(Ĝ + 10⁻¹²·I)·δ̂ = r̂` with `Ĝ_jl = G_jl/√(sq_j·sq_l)`,
    * `r̂_j = r_j/√sq_j` and `δ_j = δ̂_j/√sq_j`. The ridge keeps `δ` finite when
    * rows depend on each other over the unclipped coordinates.
    */
  private def newtonDirection(g: Array[Array[Double]], r: Array[Double], sq: Array[Double]): Array[Double] = {
    val d = r.length
    val sc = sq.map(q => if (q > 0) 1 / math.sqrt(q) else 0.0)
    val a = Array.tabulate(d, d + 1)((j, l) => if (l == d) r(j) * sc(j)
      else g(j)(l) * sc(j) * sc(l) + (if (j != l) 0.0 else if (sc(j) > 0) 1e-12 else 1.0))
    for (k <- 0 until d; i <- 0 until d if i != k) { // Gauss–Jordan; the matrix is positive definite
      val f = a(i)(k) / a(k)(k)
      for (c <- k to d) a(i)(c) -= f * a(k)(c)
    }
    Array.tabulate(d)(k => a(k)(d) / a(k)(k) * sc(k))
  }

  /** Moves every free row `i` of `r` to `clip(x − Σ_j α_j·w_j)` in place:
    * [[step]] with a zero gradient and no fixing. Sets `r.last` to the
    * number of free rows whose new `x` differs, bit for bit, from `r.back`,
    * then keeps their old `x` in `back`. The first shift makes `back` from
    * the `x` it starts from, so it counts against that `x`, and every later
    * shift against the `x` of two shifts back.
    */
  def shift(w: Array[Array[Double]], x: Array[Double], r: Rows, alpha: Array[Double]): Unit = {
    if (r.back == null) r.back = Array.tabulate(r.n)(k => x(r.free(k)))
    var changed = 0
    var k = 0
    while (k < r.n) {
      val i = r.free(k)
      var y = x(i)
      var j = 0
      while (j < alpha.length) { y -= alpha(j) * w(j)(i); j += 1 }
      y = Projections.clip(y)
      if (java.lang.Double.doubleToRawLongBits(y) != java.lang.Double.doubleToRawLongBits(r.back(k))) changed += 1
      r.back(k) = x(i)
      x(i) = y
      k += 1
    }
    r.last = changed
  }

  /** `W_j = Σ_i w_j(i)` per dimension, added in element order. */
  def totals(w: Array[Array[Double]]): Array[Double] = w.map { wj =>
    var s = 0.0
    var i = 0
    while (i < wj.length) { s += wj(i); i += 1 }
    s
  }

  /** The sum of the vectors of the ranges, added in range order into a copy
    * of the first; the inputs are left unchanged.
    */
  def sumInOrder(parts: Array[Array[Double]]): Array[Double] = {
    val sum = parts(0).clone()
    var p = 1
    while (p < parts.length) {
      val b = parts(p)
      var k = 0
      while (k < sum.length) { sum(k) += b(k); k += 1 }
      p += 1
    }
    sum
  }

  /** `Σ_i w_j(i)·(2·side_i − 1)` per dimension over the vertices that have
    * a side; `side_i = −1` leaves vertex i out.
    */
  def sideSums(w: Array[Array[Double]], side: Array[Int]): Array[Double] = w.map { wj =>
    var s = 0.0
    var i = 0
    while (i < side.length) { if (side(i) >= 0) s += wj(i) * (2 * side(i) - 1); i += 1 }
    s
  }

  /** `|s_j| / W_j` per dimension, 0 where `W_j = 0`. */
  def imbalances(s: Array[Double], W: Array[Double]): Array[Double] =
    Array.tabulate(s.length)(j => if (W(j) > 0) math.abs(s(j)) / W(j) else 0.0)

  // ---- The driver ----

  /** The GD iterations, then the final projection, on `n` vertices of
    * total weights `W`; returns the number of iterations run. Up to
    * `cfg.iterations` steps, ending early once every vertex is fixed. The
    * length of step t − 1 comes back with the statistics of step t and
    * adapts γ before γ is used again.
    */
  def run(b: Blocks, n: Long, W: Array[Double], cfg: GDConfig): Int = {
    val d = W.length
    val targetLen = cfg.stepFactor * math.sqrt(n.toDouble) / cfg.iterations
    var gamma = -1.0
    var t = 0
    var anyFree = n > 0
    while (t < cfg.iterations && anyFree) {
      // Gaussian noise at the saddle x = 0 (η_t = 0 for t ≠ 0, §3.2).
      val v = b.stepStats(if (t == 0) targetLen / math.sqrt(n.toDouble) else 0.0)
      anyFree = v(freeAt(d)) > 0
      if (anyFree) {
        val actual = math.sqrt(v(freeAt(d) + 1))
        if (t > 0 && cfg.adaptiveStep && actual > 1e-12)
          gamma *= math.min(2.0, math.max(0.5, targetLen / actual))
        if (gamma <= 0) gamma = targetLen / math.max(math.sqrt(v(0)), 1e-12)
        b.step(gamma, planeCoefficients(v, d, gamma))
        t += 1
      }
    }
    finalProjection(b, W, cfg)
    t
  }

  /** §3.1: "in the last iterations we run the alternating projections
    * method until convergence", for at most `cfg.finalProjIters` passes.
    * Stops once every slab holds (to `1e-9·(1 + W_j)`) or no vertex is
    * free to move. Also stops once the first pass returns the `x` it
    * started from, or a later pass the `x` of two passes back ([[shift]]
    * counts the rows that differ): a pass is a function of `x`, so the rest
    * of the budget would alternate between the last two `x` without meeting
    * the slabs. It takes one more pass first if the rest of the budget is
    * odd, and so ends on the `x` the budget would end on.
    */
  private[core] def finalProjection(b: Blocks, W: Array[Double], cfg: GDConfig): Unit = {
    val d = W.length
    var pass = 0
    var done = false
    while (pass < cfg.finalProjIters && !done) {
      val v = b.slabStats()
      done = v(freeAt(d)) == 0 || (0 until d).forall(j =>
        math.abs(v(1 + j) + v(fixedAt(d) + j)) <= cfg.eps * W(j) + 1e-9 * (1 + W(j)))
      if (!done) {
        val cycles = pass >= 1 && v(freeAt(d) + 1) == 0
        if (!cycles || (cfg.finalProjIters - pass) % 2 == 1) b.shift(planeCoefficients(v, d, 0.0))
        pass += 1
        done = cycles
      }
    }
  }

  /** `α` of the sequential plane projections `y ← y − α_j·w_j` of
    * `y = z + γ·grad` onto `⟨w_j, y⟩ = −F_j`, from a [[stats]] vector.
    */
  private def planeCoefficients(v: Array[Double], d: Int, gamma: Double): Array[Double] = {
    val y = Array.tabulate(d)(j => v(1 + j) + gamma * v(1 + d + j))
    val alpha = new Array[Double](d)
    var k = gramAt(d) // the upper triangle by rows: G_jj, then G_jl for l > j
    for (j <- 0 until d) {
      alpha(j) = if (v(k) > 0) (y(j) + v(fixedAt(d) + j)) / v(k) else 0.0
      for (l <- j + 1 until d) y(l) -= alpha(j) * v(k + l - j)
      k += d - j
    }
    alpha
  }

  /** Greedy balance repair after rounding, at most `4·d` sweeps. A sweep
    * takes the dimension j with the largest violation `|s_j| − εW_j` and
    * walks the vertices on its heavy side, least confident first, flipping
    * each one whose flip lowers the largest violation, until j holds.
    *
    * @param s          [[sideSums]] of the sides; updated
    * @param candidates the vertices now on a side, as (id, weights), by
    *                   `|x|` and then id
    * @param flip       moves a vertex to the other side
    */
  def repair(s: Array[Double], W: Array[Double], eps: Double,
             candidates: Int => Iterator[(Long, Array[Double])], flip: Long => Unit): Unit = {
    val d = s.length
    def violation(j: Int): Double = math.abs(s(j)) - eps * W(j)
    var sweep = 0
    var progress = true
    while (progress && sweep < 4 * d) {
      progress = false
      val j = (0 until d).maxBy(violation)
      if (violation(j) > 0) {
        val heavy = if (s(j) > 0) 1 else 0
        // Flipping a vertex changes s(l) by −2·sign·w_l.
        val sign = 2 * heavy - 1
        val it = candidates(heavy)
        while (it.hasNext && violation(j) > 0) {
          val (id, w) = it.next()
          var before = 0.0
          var after = 0.0
          var l = 0
          while (l < d) {
            before = math.max(before, violation(l))
            after = math.max(after, math.abs(s(l) - 2.0 * sign * w(l)) - eps * W(l))
            l += 1
          }
          if (after < before) {
            l = 0
            while (l < d) { s(l) -= 2.0 * sign * w(l); l += 1 }
            flip(id)
            progress = true
          }
        }
      }
      sweep += 1
    }
  }
}
