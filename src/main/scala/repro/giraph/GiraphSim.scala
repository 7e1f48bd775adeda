package repro.giraph

import repro.graphs.LocalGraph
import scala.util.Random

/** Cost-model simulator of a vertex-centric BSP (Giraph-like) cluster.
  *
  * The paper measures real Giraph jobs on 16/128-worker clusters; offline we
  * model exactly the effects the paper identifies as driving performance:
  *
  *  - compute cost per worker grows with its edge/message count
  *    (ρ = 0.79 correlation reported in §1);
  *  - per-vertex overhead (message serialization etc.) grows with its vertex
  *    count (ρ = 0.62);
  *  - network cost grows with the number of cut-edge (remote) messages;
  *  - a superstep ends at a global barrier, so its duration is the MAX over
  *    workers.
  *
  * Per superstep, worker w with V_w vertices, I_w internal (uncut) edges and
  * C_w cut-edge endpoints:
  *
  *    messagesIn_w  = (2·I_w + C_w) · msgsPerEdge
  *    remoteOut_w   = C_w · msgsPerEdge
  *    t_w = (cVertex·V_w + cMsg·messagesIn_w + cNet·(2·C_w·msgsPerEdge))
  *          · (1 + 0.05·N(0, 1))   (one draw per worker and superstep)
  *
  * The partitions fed in are real partitioner outputs, so which strategy
  * wins is an emergent result of its actual balance/locality; only the
  * absolute scale is calibrated (see EXPERIMENTS.md).
  */
final case class WorkloadSpec(
    name: String,
    supersteps: Int,
    msgsPerEdge: Double,
    cVertex: Double,
    cMsg: Double,
    cNet: Double,
    bytesPerMsg: Double,
)

/** The four Giraph applications of §4.2. HC and MF are proprietary Facebook
  * applications characterized in the paper only as message-heavy; they are
  * modelled as such (DESIGN.md §4).
  */
object Workloads {
  val PageRank: WorkloadSpec =
    WorkloadSpec("PR", supersteps = 30, msgsPerEdge = 1.0,
      cVertex = 1.0, cMsg = 0.12, cNet = 0.25, bytesPerMsg = 12.0)
  val ConnectedComponents: WorkloadSpec =
    WorkloadSpec("CC", supersteps = 50, msgsPerEdge = 0.4,
      cVertex = 0.8, cMsg = 0.12, cNet = 0.25, bytesPerMsg = 12.0)
  val HypergraphClustering: WorkloadSpec =
    WorkloadSpec("HC", supersteps = 20, msgsPerEdge = 2.5,
      cVertex = 1.2, cMsg = 0.15, cNet = 0.35, bytesPerMsg = 24.0)
  val MutualFriends: WorkloadSpec =
    WorkloadSpec("MF", supersteps = 10, msgsPerEdge = 4.0,
      cVertex = 1.5, cMsg = 0.18, cNet = 0.40, bytesPerMsg = 32.0)
  val All: Seq[WorkloadSpec] =
    Seq(PageRank, ConnectedComponents, HypergraphClustering, MutualFriends)
}

/** Aggregate statistics over all (worker, superstep) samples. */
final case class SimStats(
    runtimeMean: Double, runtimeMax: Double, runtimeStd: Double,
    commMean: Double, commMax: Double, commStd: Double,
    totalTime: Double,
)

object GiraphSim {

  /** Per-worker static loads derived from the partition. */
  final case class Loads(vertices: Array[Long], internal: Array[Long], cutEnds: Array[Long])

  /** For each part: vertex count, internal (uncut) edges, and cut-edge
    * endpoints (== remote messages out == remote messages in per superstep
    * per message wave).
    */
  def loads(g: LocalGraph, assign: Array[Int], k: Int): Loads = {
    val l = Loads(new Array[Long](k), new Array[Long](k), new Array[Long](k))
    var u = 0
    while (u < g.n) {
      l.vertices(assign(u)) += 1
      g.foreachNeighbor(u) { w =>
        if (u < w) {
          if (assign(u) == assign(w)) l.internal(assign(u)) += 1
          else { l.cutEnds(assign(u)) += 1; l.cutEnds(assign(w)) += 1 }
        }
      }
      u += 1
    }
    l
  }

  /** Simulate a run; per-sample runtime/communication statistics plus the
    * total job time (sum over supersteps of the slowest worker).
    */
  def simulate(l: Loads, wl: WorkloadSpec, seed: Long = 1234): SimStats = {
    val k = l.vertices.length
    val rng = new Random(seed)
    val ts = new Array[Double](wl.supersteps * k)
    val cs = new Array[Double](wl.supersteps * k)
    var total = 0.0
    var s = 0
    while (s < wl.supersteps) {
      var mx = 0.0
      var w = 0
      while (w < k) {
        val msgsIn = (2.0 * l.internal(w) + l.cutEnds(w)) * wl.msgsPerEdge
        val remote = l.cutEnds(w) * wl.msgsPerEdge
        val base = wl.cVertex * l.vertices(w) + wl.cMsg * msgsIn + wl.cNet * 2.0 * remote
        val noisy = base * (1.0 + 0.05 * rng.nextGaussian())
        ts(s * k + w) = math.max(0.0, noisy)
        cs(s * k + w) = remote * wl.bytesPerMsg
        if (ts(s * k + w) > mx) mx = ts(s * k + w)
        w += 1
      }
      total += mx
      s += 1
    }
    SimStats(mean(ts), ts.max, std(ts), mean(cs), cs.max, std(cs), total)
  }

  def mean(a: Array[Double]): Double = if (a.isEmpty) 0.0 else a.sum / a.length
  def std(a: Array[Double]): Double = {
    if (a.length < 2) return 0.0
    val m = mean(a)
    math.sqrt(a.map(x => (x - m) * (x - m)).sum / (a.length - 1))
  }
}
