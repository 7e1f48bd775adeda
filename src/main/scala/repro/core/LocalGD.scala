package repro.core

import java.util.concurrent.RecursiveAction
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
  * @param vertexFixing   freeze near-integral coordinates (§3.2)
  * @param fixThreshold   |x_i| ≥ threshold ⇒ fix to sign(x_i)
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
    fixThreshold: Double = 0.99,
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
  */
object LocalGD {

  /** Sparse mat-vec: out(u) = Σ_{v ∈ N(u)} z(v) — the gradient A·z.
    *
    * Row ranges of about equal adjacency length (RMAT puts its hubs at low
    * ids) run in parallel on the JVM's common fork-join pool; a range whose
    * work is below `MatvecGrain` runs on the calling thread. Each out(u) is
    * summed over N(u) in CSR order, so the result is bit-identical to a
    * sequential loop.
    */
  def matvec(g: LocalGraph, z: Array[Double]): Array[Double] = {
    val out = new Array[Double](g.n)
    new MatvecRows(g, z, out, 0, g.n).compute()
    out
  }

  /** Adjacency entries plus rows below which a row range is not split. */
  private val MatvecGrain = 1 << 15

  private final class MatvecRows(g: LocalGraph, z: Array[Double], out: Array[Double], lo: Int, hi: Int)
      extends RecursiveAction {
    private def work(u: Int): Long = g.offsets(u).toLong + u // increasing in u

    def compute(): Unit =
      if (hi - lo < 2 || work(hi) - work(lo) <= MatvecGrain) {
        var u = lo
        while (u < hi) {
          var s = 0.0
          var i = g.offsets(u)
          val end = g.offsets(u + 1)
          while (i < end) { s += z(g.adj(i)); i += 1 }
          out(u) = s
          u += 1
        }
      } else { // split at the first row in (lo, hi) where half the work is done
        val half = (work(lo) + work(hi)) / 2
        var a = lo + 1
        var b = hi - 1
        while (a < b) { val c = (a + b) >>> 1; if (work(c) < half) a = c + 1 else b = c }
        val right = new MatvecRows(g, z, out, a, hi)
        right.fork()
        new MatvecRows(g, z, out, lo, a).compute()
        right.join()
      }
  }

  /** Balanced 2-partition of `g` under weight vectors `ws` (d × n). */
  def bipartition(g: LocalGraph, ws: Array[Array[Double]], cfg: GDConfig): GDResult = {
    val n = g.n
    val d = ws.length
    require(d >= 1, "need at least one weight dimension")
    val W = ws.map(_.sum)
    val x = new Array[Double](n)
    val fixed = new Array[Boolean](n)
    val fixAt = GDKernel.fixAt(cfg)
    val traceRows = ArrayBuffer.empty[GDTraceRow]

    def imbalances(side: Array[Int]): Array[Double] = GDKernel.imbalances(GDKernel.sideSums(ws, side), W)

    /** Locality and the largest imbalance of the sign rounding of x. */
    def traceRow(t: Int): GDTraceRow = {
      val signSide = x.map(v => if (v >= 0) 1 else 0)
      GDTraceRow(t, g.edgeLocality(signSide), imbalances(signSide).max)
    }

    val blocks = new GDKernel.Blocks {
      private var z = x
      private var grad = x
      private var stats = Array.emptyDoubleArray
      private var stepSq = 0.0

      def stepStats(noise: Double): Array[Double] = {
        z = if (noise == 0.0) x else Array.tabulate(n)(i => x(i) + noise * GDKernel.gauss(cfg.seed, i))
        grad = matvec(g, z)
        stats = GDKernel.stats(ws, x, fixed, z, grad, stepSq)
        stats
      }

      /** Exact: `α` from the slabs shifted by the fixed vertices' weight `F`. */
      def step(gamma: Double, alpha: Array[Double]): Unit = {
        val a = if (cfg.projection == ProjectionMethod.OneShot) alpha else {
          val f = GDKernel.fixedWeight(stats, d)
          GDKernel.exactCoefficients(ws, fixed, z, grad, gamma,
            Array.tabulate(d)(j => -cfg.eps * W(j) - f(j)), Array.tabulate(d)(j => cfg.eps * W(j) - f(j)))._1
        }
        stepSq = GDKernel.step(ws, x, fixed, z, grad, gamma, a, fixAt, x, fixed)
        if (cfg.trace) traceRows += traceRow(traceRows.length)
      }

      def slabStats(): Array[Double] = GDKernel.slabStats(ws, x, fixed)

      def shift(alpha: Array[Double]): Unit = GDKernel.shift(ws, x, fixed, alpha, x)
    }

    val iterations = GDKernel.run(blocks, n, W, cfg)
    val side = Array.tabulate(n)(i => GDKernel.side(cfg.seed, i, x(i), fixed(i)))
    Rounding.repair(side, x, ws, cfg.eps)
    GDResult(x, side, g.edgeLocality(side), imbalances(side), traceRows.toSeq, iterations)
  }
}

/** [[GDKernel.repair]] on in-core sides: vertex ids are indices. */
object Rounding {

  def repair(side: Array[Int], x: Array[Double],
             ws: Array[Array[Double]], eps: Double): Unit = {
    // A stable sort, so ties in |x| go to the smaller id.
    lazy val order = Array.range(0, side.length).sortBy(i => math.abs(x(i)))
    GDKernel.repair(GDKernel.sideSums(ws, side), ws.map(_.sum), eps,
      heavy => order.iterator.filter(side(_) == heavy).map(i => (i.toLong, ws.map(_(i)))),
      id => side(id.toInt) = 1 - side(id.toInt))
  }
}
