package repro.core

import java.util.concurrent.{ForkJoinPool, ForkJoinTask, RecursiveAction}
import java.util.concurrent.atomic.AtomicInteger
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
  * parallel on one [[Team]] per call: the calling thread and helpers on the
  * fork-join pool of the calling thread (the JVM's common pool outside
  * one), which stay between the passes. The chunks come from the CSR alone
  * ([[chunks]]), and each keeps the list of its free rows
  * ([[GDKernel.Rows]]), built once per call, which the GD passes and the
  * mat-vec of the free rows walk. Each chunk's sums are kept apart and
  * added on the caller in chunk order, so the result depends on the graph,
  * never on the number of threads.
  */
object LocalGD {

  /** Sparse mat-vec: out(u) = Σ_{v ∈ N(u)} z(v) — the gradient A·z. The
    * chunks run in parallel; each out(u) is summed over N(u) in CSR order,
    * so the result is bit-identical to a sequential loop.
    */
  def matvec(g: LocalGraph, z: Array[Double]): Array[Double] = {
    val out = new Array[Double](g.n)
    val team = new Team(chunks(g))
    try team.eachChunk((_, lo, hi) => rowSums(g, z, Array.range(lo, hi), hi - lo, out))
    finally team.close()
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

  /** The threads that run the passes of one call over the chunks `bounds`:
    * the caller, and helper tasks on the fork-join pool of the calling
    * thread (the common pool outside one) up to the pool's parallelism,
    * less the caller if it is one of the pool's workers, and to one fewer
    * than the chunks. The helpers are started with the team and stay for
    * the passes that follow, so a pass pays no fork-join wake-up.
    *
    * In a pass ([[eachChunk]]) every participant claims chunks from one
    * counter until none is left. The caller claims like the others, then
    * waits only for chunks that a helper has claimed, never for a helper
    * that has not started, so a pool whose workers are all busy (the
    * recursion's other halves, or a pool of one) runs the call on the
    * caller alone and cannot stall it. Between passes a helper spins for
    * the next one for 200 µs, longer than the caller's work between two GD
    * passes, then leaves; a pass that finds every helper gone (after the
    * repair's sort, or an exact projection's solve) starts them again, and
    * all leave at [[close]]. What a chunk computes does not depend on the
    * thread that runs it, so neither does the result.
    */
  private[core] final class Team(bounds: Array[Int]) {
    private final class Pass(val f: (Int, Int, Int) => Unit) extends AtomicInteger {
      val done = new AtomicInteger
      @volatile var failure: Throwable = null

      /** Claims and runs chunks until none is left, the last chunk first
        * (the inherited count is the number claimed). RMAT puts its hubs at
        * low ids, and they are fixed first, so the late chunks keep the most
        * free rows: a pass ends on short chunks.
        */
      def work(): Unit = {
        var k = getAndIncrement()
        while (k < chunks) {
          val c = chunks - 1 - k
          try f(c, bounds(c), bounds(c + 1))
          catch { case e: Throwable => if (failure == null) failure = e }
          done.incrementAndGet()
          k = getAndIncrement()
        }
      }
    }

    private val chunks = bounds.length - 1
    @volatile private var current: Pass = null
    @volatile private var closed = false

    private val own = ForkJoinTask.getPool
    private val pool = if (own != null) own else ForkJoinPool.commonPool
    private val helpers = math.min(pool.getParallelism - (if (own != null) 1 else 0), chunks - 1)
    /** Helpers started and not yet gone. */
    private val live = new AtomicInteger
    start()

    private def start(): Unit = for (_ <- 0 until helpers) {
      live.incrementAndGet()
      pool.execute(new RecursiveAction { def compute(): Unit = try help() finally live.decrementAndGet() })
    }

    private def help(): Unit = {
      var seen: Pass = null
      var idleSince = System.nanoTime()
      while (!closed) {
        val p = current
        if (p ne seen) { seen = p; p.work(); idleSince = System.nanoTime() }
        else if (System.nanoTime() - idleSince > 200000L) return
        else Thread.onSpinWait()
      }
    }

    /** `f(c, lo, hi)` for every chunk `c = [lo, hi)`; returns once all are
      * done, and throws what a chunk threw.
      */
    def eachChunk(f: (Int, Int, Int) => Unit): Unit = {
      val p = new Pass(f)
      if (live.get == 0) start()
      current = p
      p.work()
      while (p.done.get < chunks) Thread.onSpinWait()
      if (p.failure != null) throw p.failure
    }

    /** Lets the helpers go. */
    def close(): Unit = closed = true
  }

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

  /** The [[GDKernel.Blocks]] of a call on `g`, over its [[chunks]]. `x` and
    * the chunks' [[rows]], which keep each chunk's fixed set and GD
    * bookkeeping, are the state; every pass writes `x` in place, and the
    * gradient is computed for free rows only, into one buffer for the whole
    * call. Vertex `i` draws its noise and rounding by `id(i)`.
    */
  private[core] final class Chunked(g: LocalGraph, ws: Array[Array[Double]], cfg: GDConfig,
                                    id: Int => Long = i => i) extends GDKernel.Blocks {
    val bounds: Array[Int] = chunks(g)
    private val team = new Team(bounds)
    /** `W_j`, the total weights. */
    val W: Array[Double] = GDKernel.totals(ws)
    val x = new Array[Double](g.n)
    /** The fixed and free rows of each chunk, none fixed at first. */
    val rows = new Array[GDKernel.Rows](bounds.length - 1)
    team.eachChunk((c, lo, hi) => rows(c) = GDKernel.rows(ws, x, lo, hi)(_ => false))
    private val d = ws.length
    private val fixAt = GDKernel.fixAt(cfg)
    private val grad = new Array[Double](g.n)
    private var z = x
    private var stats = Array.emptyDoubleArray
    private val partStats = new Array[Array[Double]](bounds.length - 1)
    val traceRows = ArrayBuffer.empty[GDTraceRow]

    def stepStats(noise: Double): Array[Double] = {
      if (noise != 0.0) {
        z = x.clone()
        team.eachChunk((c, _, _) => GDKernel.addNoise(z, rows(c), noise, cfg.seed, id))
      } else z = x
      team.eachChunk { (c, _, _) =>
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
        GDKernel.exactCoefficients(ws, rows.flatMap(r => r.free.take(r.n)), z, grad, gamma,
          Array.tabulate(d)(j => -cfg.eps * W(j) - f(j)), Array.tabulate(d)(j => cfg.eps * W(j) - f(j)))._1
      }
      team.eachChunk((c, _, _) => GDKernel.step(ws, x, rows(c), z, grad, gamma, a, fixAt))
      if (cfg.trace) traceRows += traceRow(traceRows.length)
    }

    def slabStats(): Array[Double] = {
      team.eachChunk((c, _, _) => partStats(c) = GDKernel.slabStats(ws, x, rows(c)))
      GDKernel.sumInOrder(partStats)
    }

    def shift(alpha: Array[Double]): Unit = team.eachChunk((c, _, _) => GDKernel.shift(ws, x, rows(c), alpha))

    /** The rounded sides of `x` (§3.1), drawn per chunk. */
    def sides(): Array[Int] = {
      val side = new Array[Int](g.n)
      team.eachChunk((_, lo, hi) => for (i <- lo until hi) side(i) = GDKernel.side(cfg.seed, id(i), x(i)))
      side
    }

    /** Fraction of uncut edges under `side`, counted per chunk. */
    def locality(side: Array[Int]): Double = {
      val uncut = new Array[Long](bounds.length - 1)
      team.eachChunk((c, lo, hi) => uncut(c) = g.uncutEdges(side, lo, hi))
      g.locality(uncut.sum)
    }

    def imbalances(side: Array[Int]): Array[Double] = GDKernel.imbalances(GDKernel.sideSums(ws, side), W)

    /** Lets the call's helpers go. */
    def close(): Unit = team.close()

    /** Locality and the largest imbalance of the sign rounding of x. */
    private def traceRow(t: Int): GDTraceRow = {
      val signSide = x.map(v => if (v >= 0) 1 else 0)
      GDTraceRow(t, g.edgeLocality(signSide), imbalances(signSide).max)
    }
  }

  /** Balanced 2-partition of `g` under weight vectors `ws` (d × n). */
  def bipartition(g: LocalGraph, ws: Array[Array[Double]], cfg: GDConfig): GDResult =
    solve(g, ws, cfg, i => i)((b, side, iterations) =>
      GDResult(b.x, side, b.locality(side), b.imbalances(side), b.traceRows.toSeq, iterations))

  /** The sides of [[bipartition]], without scoring them, with the draws
    * of vertex `i` by `id(i)`: its id in the graph that `g` was induced from.
    */
  private[core] def sides(g: LocalGraph, ws: Array[Array[Double]], cfg: GDConfig, id: Int => Long): Array[Int] =
    solve(g, ws, cfg, id)((_, side, _) => side)

  /** GD, rounding and repair on `g`; `result` gets the call's blocks, the
    * repaired sides and the iteration count.
    */
  private def solve[T](g: LocalGraph, ws: Array[Array[Double]], cfg: GDConfig, id: Int => Long)(
      result: (Chunked, Array[Int], Int) => T): T = {
    require(ws.length >= 1, "need at least one weight dimension")
    val b = new Chunked(g, ws, cfg, id)
    try {
      val iterations = GDKernel.run(b, g.n, b.W, cfg)
      val side = b.sides()
      Rounding.repair(side, b.x, ws, cfg.eps)
      result(b, side, iterations)
    } finally b.close()
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
