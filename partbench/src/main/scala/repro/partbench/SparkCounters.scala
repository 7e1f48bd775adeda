package repro.partbench

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageCompleted, SparkListenerTaskEnd}

/** Counts the Spark work of the traced call: jobs, stages and tasks run,
  * failed tasks, shuffle bytes, and task run, CPU and GC time. Registered
  * only around the traced call, so untraced calls run listener-free.
  */
final class SparkCounters extends SparkListener {
  private val jobs, stages, tasks, failedTasks, shuffleWrite, shuffleRead, runMs, cpuNs, gcMs = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = stages.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    if (!e.taskInfo.successful) failedTasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) {
      shuffleWrite.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      shuffleRead.addAndGet(m.shuffleReadMetrics.totalBytesRead)
      runMs.addAndGet(m.executorRunTime)
      cpuNs.addAndGet(m.executorCpuTime)
      gcMs.addAndGet(m.jvmGCTime)
    }
  }

  /** The `spark.*` metrics of a call that ran `iterations` GD iterations in
    * `wallS` seconds on `cores` cores.
    */
  def metrics(iterations: Int, wallS: Double, cores: Int): Seq[(String, (Double, String))] = Seq(
    "spark.jobs" -> (jobs.get.toDouble, "count"),
    "spark.jobs_per_iter" -> (jobs.get.toDouble / math.max(iterations, 1), "count"),
    "spark.stages" -> (stages.get.toDouble, "count"),
    "spark.tasks" -> (tasks.get.toDouble, "count"),
    "spark.failed_tasks" -> (failedTasks.get.toDouble, "count"),
    "spark.shuffle_write_mb" -> (shuffleWrite.get / 1e6, "MB"),
    "spark.shuffle_read_mb" -> (shuffleRead.get / 1e6, "MB"),
    "spark.task_run_s" -> (runMs.get / 1e3, "s"),
    "spark.task_cpu_s" -> (cpuNs.get / 1e9, "s"),
    "spark.task_gc_s" -> (gcMs.get / 1e3, "s"),
    "spark.utilization" -> (runMs.get / 1e3 / (wallS * cores), "ratio"),
  )
}
