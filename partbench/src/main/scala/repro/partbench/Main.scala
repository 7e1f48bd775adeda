package repro.partbench

import java.lang.management.ManagementFactory
import scala.collection.mutable

/** Command line of the partitioner benchmark:
  *
  * {{{
  * bash partbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * }}}
  *
  * With `--trace 0` it sets the workload up once, then times partition
  * calls for `--seconds` and prints the end-to-end metrics. With `--trace 1`
  * it prints the per-layer metrics instead (see [[Layers]]). Every call's
  * output is checked. The last line of standard output is one JSON object:
  * `{"correct", "attempted", "failed", "metrics"}`; the line before it
  * records the run's settings and the figures that are not gated (sample
  * count, tail, failures, seeds, machine).
  */
object Main {

  final case class Options(workload: String, seed: Option[Long], seconds: Double, trace: Boolean)

  /** No timed call starts that would likely end after this many seconds of the run. */
  private val runBudgetS = 150.0

  private val usage =
    s"usage: run.sh --workload <${Workloads.names.mkString("|")}> --seed <n> --seconds <s> --trace <0|1>"

  def parse(args: List[String], o: Options): Options = args match {
    case "--workload" :: v :: rest               => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest                   => parse(rest, o.copy(seed = Some(v.toLong)))
    case "--seconds" :: v :: rest                => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: (v @ ("0" | "1")) :: rest => parse(rest, o.copy(trace = v == "1"))
    case Nil                                     => o
    case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
  }

  def main(args: Array[String]): Unit = {
    val start = System.nanoTime()
    val opts =
      try parse(args.toList, Options("", None, 10, trace = false))
      catch { case e: IllegalArgumentException => fail(s"${e.getMessage}\n$usage") }
    val workload = Workloads.byName.getOrElse(opts.workload, fail(s"unknown workload '${opts.workload}'\n$usage"))
    val deadline = System.nanoTime() + (runBudgetS * 1e9).toLong
    val result = try {
      if (opts.trace) traced(workload, opts) else untraced(workload, opts, start, deadline)
    } finally workload.close()
    println(Json.obj(result.record))
    println(Json.obj(Seq(
      "correct" -> (result.failed == 0),
      "attempted" -> result.attempted,
      "failed" -> result.failed,
      "metrics" -> Json.Raw(Json.obj(result.metrics.map { case (k, (v, unit)) =>
        k -> Json.Raw(Json.obj(Seq("value" -> v, "unit" -> unit)))
      })),
    )))
  }

  private def fail(msg: String): Nothing = {
    System.err.println(msg)
    sys.exit(2)
  }

  /** What one run prints: metrics by name with unit, the call counts, and the record line. */
  final case class Result(metrics: Seq[(String, (Double, String))], attempted: Int, failed: Int,
                          record: Seq[(String, Any)])

  /** One timed partition call: wall seconds, bytes the calling thread
    * allocated, GC seconds, and the check of its output.
    */
  final case class Sample(wallS: Double, allocBytes: Long, gcS: Double, check: Check)

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans

  private def gcMillis(): Long = { var s = 0L; gcs.forEach(b => s += math.max(0L, b.getCollectionTime)); s }

  /** Times one call; a call that throws or outlives its limit counts as failed. */
  def sample(call: () => (() => Check), limitS: Double): Sample = {
    val gc0 = gcMillis()
    val a0 = threads.getCurrentThreadAllocatedBytes
    val t0 = System.nanoTime()
    val checker = try call() catch { case e: Exception => () => Check.failed(s"threw $e") }
    val wall = (System.nanoTime() - t0) / 1e9
    val alloc = threads.getCurrentThreadAllocatedBytes - a0
    val gc = (gcMillis() - gc0) / 1e3
    val check = try checker() catch { case e: Exception => Check.failed(s"check threw $e") }
    val timed = if (wall > limitS) check.copy(problems = check.problems :+ f"took $wall%.1f s > $limitS%.0f s") else check
    if (!timed.ok) System.err.println(s"[partbench] failed call: ${timed.problems.mkString("; ")}")
    Sample(wall, alloc, gc, timed)
  }

  /** Calls until `seconds` have passed and the workload's `minCalls` are
    * made, stopping early if another call would overrun the run's deadline.
    */
  private def measure(inst: Instance, workload: Workload, seconds: Double, deadline: Long): Seq[Sample] = {
    val out = mutable.ArrayBuffer.empty[Sample]
    val start = System.nanoTime()
    def elapsed = (System.nanoTime() - start) / 1e9
    def room = out.isEmpty || System.nanoTime() + (out.map(_.wallS).max * 1.5e9).toLong < deadline
    while ((out.size < workload.minCalls || elapsed < seconds) && room) out += sample(() => inst.partition(), workload.callLimitS)
    out.toSeq
  }

  /** `setup_s` is everything from the start of `main` to the first timed
    * call: argument parsing, the Spark session, the inputs and the warm-up
    * calls, done once and cold, as a user of the program would pay it.
    */
  private def untraced(workload: Workload, opts: Options, start: Long, deadline: Long): Result = {
    val inst = workload.setUp(opts.seed)
    val setupS = (System.nanoTime() - start) / 1e9
    val samples = measure(inst, workload, opts.seconds, deadline)
    val ok = samples.filter(_.check.ok)
    val quality = if (ok.nonEmpty) ok.head.check else samples.head.check
    val walls = samples.map(_.wallS)
    val failed = samples.count(!_.check.ok)
    val metrics = Seq(
      "partition_s" -> (Stats.median(walls), "s"),
      "setup_s" -> (setupS, "s"),
      "locality" -> (quality.locality, "fraction"),
      "max_load" -> (1.0 + quality.maxImbalance, "ratio"),
      "alloc_mb" -> (Stats.median(samples.map(_.allocBytes / 1e6)), "MB"),
    )
    val record = inst.record ++ Seq(
      "calls" -> samples.size,
      "partition_s_tail" -> Stats.tail(walls).map { case (p, v) => Json.Raw(Json.obj(Seq("percentile" -> p, "s" -> v))) }
        .getOrElse("fewer than 11 calls"),
      "partition_s_all" -> Json.Raw(walls.mkString("[", ",", "]")),
      "failed_frac" -> failed.toDouble / samples.size,
      "max_imbalance" -> quality.maxImbalance,
      "imbalance_bound" -> quality.bound,
    )
    inst.close()
    Result(metrics, samples.size, failed, runRecord(workload, opts, record))
  }

  /** Untraced call, traced call with the layer timings, untraced call: the
    * overhead is the traced call against the mean of the two around it,
    * which cancels a steady warm-up trend.
    */
  private def traced(workload: Workload, opts: Options): Result = {
    val inst = workload.setUp(opts.seed)
    val before = sample(() => inst.partition(), workload.callLimitS)
    val layers = inst.layers()
    val after = sample(() => inst.partition(), workload.callLimitS)
    val samples = Seq(before, layers.traced, after)
    val metrics = layers.metrics ++ Seq(
      "jvm.gc_s" -> (Stats.median(samples.map(_.gcS)), "s"),
      "trace.overhead_s" -> (layers.traced.wallS - (before.wallS + after.wallS) / 2, "s"),
    )
    inst.close()
    Result(metrics, samples.size, samples.count(!_.check.ok), runRecord(workload, opts, inst.record))
  }

  /** The settings every result carries, so a figure can be re-checked. */
  private def runRecord(workload: Workload, opts: Options, extra: Seq[(String, Any)]): Seq[(String, Any)] = {
    val xmx = ManagementFactory.getRuntimeMXBean.getInputArguments.toArray.map(_.toString)
      .find(_.startsWith("-Xmx")).getOrElse(s"default (${Runtime.getRuntime.maxMemory / (1 << 20)} MB)")
    Seq(
      "record" -> "partbench",
      "workload" -> workload.name,
      "trace" -> opts.trace,
      "seconds" -> opts.seconds,
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "java" -> System.getProperty("java.version"),
      "xmx" -> xmx,
      "jvm_gc" -> gcs.toArray.map(_.asInstanceOf[java.lang.management.GarbageCollectorMXBean].getName).mkString(", "),
      "git_sha" -> sys.props.getOrElse("partbench.gitSha", "unknown"),
    ) ++ workload.sparkSettings ++ extra
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolated quantile of a non-empty sample. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (pos - lo) * (s(hi) - s(lo))
  }

  /** The highest percentile that has at least ten samples beyond it, as
    * (percentile, value); None with fewer than eleven samples.
    */
  def tail(xs: Seq[Double]): Option[(Double, Double)] =
    if (xs.size < 11) None
    else {
      val s = xs.sorted
      val idx = s.size - 11
      Some((100.0 * (idx + 1) / s.size, s(idx)))
    }
}

/** Just enough JSON for flat records; values are numbers, booleans, strings or raw JSON. */
object Json {
  final case class Raw(json: String)

  def obj(fields: Seq[(String, Any)]): String =
    fields.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}")

  private def value(v: Any): String = v match {
    case Raw(j)                                   => j
    case b: Boolean                               => b.toString
    case i: Int                                   => i.toString
    case l: Long                                  => l.toString
    case d: Double if d.isNaN || d.isInfinite     => "null"
    case d: Double                                => d.toString
    case s: String                                => str(s)
    case other                                    => str(other.toString)
  }

  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""
}
