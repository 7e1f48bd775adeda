package repro.core

import java.util.stream.IntStream
import repro.graphs.LocalGraph
import scala.collection.mutable.ArrayBuffer

/** Projection method used inside the GD iterations (paper §3.1). */
sealed trait ProjectionMethod
object ProjectionMethod {
  /** Project each plane once, then the cube — the paper's default. */
  case object OneShot extends ProjectionMethod
  /** The exact projection, any d ([[GDKernel.exactCoefficients]]); in-core only. */
  case object Exact extends ProjectionMethod
}

/** Parameters of Algorithm 1 plus the practical choices of §3.2.
  *
  * @param eps            allowed relative imbalance per dimension
  * @param iterations     I, the iteration budget (paper uses 100)
  * @param projection     in-loop projection: one-shot or exact (any d)
  * @param adaptiveStep   rescale γ each iteration so that the realized step
  *                       length ‖x_t − x_{t+1}‖ stays near the target
  * @param vertexFixing   fix x_i to sign(x_i) once |x_i| ≥ 0.99 (§3.2)
  * @param stepFactor     target step length = stepFactor·√n / iterations
  *                       (paper Fig. 8: factor 2 works well)
  * @param seed           RNG seed for the t=0 Gaussian noise and rounding
  * @param finalProjIters alternating-projection budget for the final
  *                       until-convergence pass
  * @param trace          record per-iteration locality/imbalance (Fig. 9)
  */
final case class GDConfig(
    eps: Double = 0.05,
    iterations: Int = 100,
    projection: ProjectionMethod = ProjectionMethod.OneShot,
    adaptiveStep: Boolean = true,
    vertexFixing: Boolean = true,
    stepFactor: Double = 2.0,
    seed: Long = 12345,
    finalProjIters: Int = 500,
    trace: Boolean = false,
)

/** Per-iteration trace row: locality of sign-rounded x and the maximum
  * relative balance violation |⟨w_j, x⟩| / W_j over dimensions.
  */
final case class GDTraceRow(iter: Int, locality: Double, maxImbalance: Double)

/** Output of a GD bipartition run. `side(i) ∈ {0, 1}`; `iterations` is
  * the number of GD steps taken.
  */
final case class GDResult(
    x: Array[Double],
    side: Array[Int],
    locality: Double,
    imbalances: Array[Double],
    trace: Seq[GDTraceRow],
    iterations: Int,
)

/** In-core executor of [[GDKernel]]: one block of arrays indexed by vertex,
  * with the mat-vec over the CSR graph. It also runs the exact projection,
  * which only it supports. Used for the many-configuration quality sweeps
  * and as the reference for [[DistGD]].
  *
  * Every per-vertex pass of a call runs on the same chunks of rows, in
  * parallel on the fork-join pool of the calling thread (the JVM's common
  * pool outside one). The chunks come from the CSR alone ([[chunks]]), and
  * each keeps the list of its free rows ([[GDKernel.Rows]]), built once per
  * call, which the GD passes and the mat-vec of the free rows walk. Each
  * chunk's sums are kept apart and added on the caller in chunk order, so
  * the result depends on the graph, never on the number of threads.
  */
object LocalGD {

  /** Sparse mat-vec: out(u) = Σ_{v ∈ N(u)} z(v) — the gradient A·z. The
    * chunks run in parallel; each out(u) is summed over N(u) in CSR order,
    * so the result is bit-identical to a sequential loop.
    */
  def matvec(g: LocalGraph, z: Array[Double]): Array[Double] = {
    val out = new Array[Double](g.n)
    eachChunk(chunks(g))((_, lo, hi) => rowSums(g, z, Array.range(lo, hi), hi - lo, out))
    out
  }

  /** Chunk boundaries `0 = b(0) < b(1) < … < b(c) = n`: chunk `i` is rows
    * `[b(i), b(i + 1))`. A chunk closes at the first row where its work,
    * adjacency entries plus rows, reaches 2^15 (RMAT puts its hubs at low
    * ids, so rows alone would not balance).
    */
  private[core] def chunks(g: LocalGraph): Array[Int] = {
    val bounds = Array.newBuilder[Int] += 0
    var lo = 0
    var u = 1
    while (u < g.n) {
      if ((g.offsets(u) - g.offsets(lo)).toLong + (u - lo) >= (1 << 15)) { bounds += u; lo = u }
      u += 1
    }
    (bounds += g.n).result()
  }

  /** `f(c, lo, hi)` for every chunk `c = [lo, hi)` of `bounds`, in parallel
    * on the fork-join pool of the calling thread (a parallel stream runs
    * there); returns once all are done.
    */
  private def eachChunk(bounds: Array[Int])(f: (Int, Int, Int) => Unit): Unit =
    IntStream.range(0, bounds.length - 1).parallel().forEach(c => f(c, bounds(c), bounds(c + 1)))

  /** `out(u) = Σ_{v ∈ N(u)} z(v)` in CSR order for the rows `u` of
    * `rows(0 until n)`; other rows keep their `out`.
    */
  private def rowSums(g: LocalGraph, z: Array[Double], rows: Array[Int], n: Int,
                      out: Array[Double]): Unit = {
    var k = 0
    while (k < n) {
      val u = rows(k)
      var s = 0.0
      var i = g.offsets(u)
      val end = g.offsets(u + 1)
      while (i < end) { s += z(g.adj(i)); i += 1 }
      out(u) = s
      k += 1
    }
  }

  /** The [[GDKernel.Blocks]] of a call on `g`, over its [[chunks]]. `x`,
    * `fixed` and the chunks' [[rows]], which keep each chunk's GD
    * bookkeeping, are the state; every pass writes `x` in place, and the
    * gradient is computed for free rows only, into one buffer for the whole
    * call. Vertex `i` draws its noise and rounding by `id(i)`.
    */
  private[core] final class Chunked(g: LocalGraph, ws: Array[Array[Double]], cfg: GDConfig,
                                    id: Int => Long = i => i) extends GDKernel.Blocks {
    val bounds: Array[Int] = chunks(g)
    /** `W_j`, the total weights. */
    val W: Array[Double] = GDKernel.totals(ws)
    val x = new Array[Double](g.n)
    val fixed = new Array[Boolean](g.n)
    /** The free rows of each chunk. */
    val rows = new Array[GDKernel.Rows](bounds.length - 1)
    eachChunk(bounds)((c, lo, hi) => rows(c) = GDKernel.rows(ws, x, fixed, lo, hi))
    private val d = ws.length
    private val fixAt = GDKernel.fixAt(cfg)
    private val grad = new Array[Double](g.n)
    private var z = x
    private var stats = Array.emptyDoubleArray
    private val partStats = new Array[Array[Double]](bounds.length - 1)
    val traceRows = ArrayBuffer.empty[GDTraceRow]

    def stepStats(noise: Double): Array[Double] = {
      if (noise != 0.0) {
        z = new Array[Double](g.n)
        eachChunk(bounds)((_, lo, hi) => for (i <- lo until hi)
          z(i) = if (fixed(i)) x(i) else x(i) + noise * GDKernel.gauss(cfg.seed, id(i)))
      } else z = x
      eachChunk(bounds) { (c, _, _) =>
        rowSums(g, z, rows(c).free, rows(c).n, grad)
        partStats(c) = GDKernel.stats(ws, z, grad, rows(c))
      }
      stats = GDKernel.sumInOrder(partStats)
      stats
    }

    /** Exact: `α` from the slabs shifted by the fixed vertices' weight `F`. */
    def step(gamma: Double, alpha: Array[Double]): Unit = {
      val a = if (cfg.projection == ProjectionMethod.OneShot) alpha else {
        val f = GDKernel.fixedWeight(stats, d)
        GDKernel.exactCoefficients(ws, fixed, z, grad, gamma,
          Array.tabulate(d)(j => -cfg.eps * W(j) - f(j)), Array.tabulate(d)(j => cfg.eps * W(j) - f(j)))._1
      }
      eachChunk(bounds)((c, _, _) => GDKernel.step(ws, x, fixed, rows(c), z, grad, gamma, a, fixAt))
      if (cfg.trace) traceRows += traceRow(traceRows.length)
    }

    def slabStats(): Array[Double] = {
      eachChunk(bounds)((c, _, _) => partStats(c) = GDKernel.slabStats(ws, x, rows(c)))
      GDKernel.sumInOrder(partStats)
    }

    def shift(alpha: Array[Double]): Unit = eachChunk(bounds)((c, _, _) => GDKernel.shift(ws, x, rows(c), alpha))

    /** The rounded sides of `x` (§3.1), drawn per chunk. */
    def sides(): Array[Int] = {
      val side = new Array[Int](g.n)
      eachChunk(bounds)((_, lo, hi) => for (i <- lo until hi) side(i) = GDKernel.side(cfg.seed, id(i), x(i), fixed(i)))
      side
    }

    /** Fraction of uncut edges under `side`, counted per chunk. */
    def locality(side: Array[Int]): Double = {
      val uncut = new Array[Long](bounds.length - 1)
      eachChunk(bounds)((c, lo, hi) => uncut(c) = g.uncutEdges(side, lo, hi))
      g.locality(uncut.sum)
    }

    def imbalances(side: Array[Int]): Array[Double] = GDKernel.imbalances(GDKernel.sideSums(ws, side), W)

    /** Locality and the largest imbalance of the sign rounding of x. */
    private def traceRow(t: Int): GDTraceRow = {
      val signSide = x.map(v => if (v >= 0) 1 else 0)
      GDTraceRow(t, g.edgeLocality(signSide), imbalances(signSide).max)
    }
  }

  /** Balanced 2-partition of `g` under weight vectors `ws` (d × n). Vertex
    * `i` draws its noise and rounding by `id(i)`: its id in the graph that
    * `g` was induced from, if any.
    */
  def bipartition(g: LocalGraph, ws: Array[Array[Double]], cfg: GDConfig,
                  id: Int => Long = i => i): GDResult = {
    require(ws.length >= 1, "need at least one weight dimension")
    val b = new Chunked(g, ws, cfg, id)
    val iterations = GDKernel.run(b, g.n, b.W, cfg)
    val side = b.sides()
    Rounding.repair(side, b.x, ws, cfg.eps)
    GDResult(b.x, side, b.locality(side), b.imbalances(side), b.traceRows.toSeq, iterations)
  }
}

/** [[GDKernel.repair]] on in-core sides: vertex ids are indices. */
object Rounding {

  def repair(side: Array[Int], x: Array[Double], ws: Array[Array[Double]], eps: Double): Unit = {
    // A stable sort, so ties in |x| go to the smaller id.
    lazy val order = Array.range(0, side.length).sortBy(i => math.abs(x(i)))
    GDKernel.repair(GDKernel.sideSums(ws, side), GDKernel.totals(ws), eps,
      heavy => order.iterator.filter(side(_) == heavy).map(i => (i.toLong, ws.map(_(i)))),
      id => side(id.toInt) = 1 - side(id.toInt))
  }
}
