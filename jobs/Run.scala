package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Experiments

/** Entrypoint for the paper's tables and figures (§4), one per argument:
  *
  *   table1 [scale] [k]            Table 1: PR runtime and communication per worker
  *   multidim                      Figure 4 (imbalance), Figures 5/6 (locality), §4.1 4-dim runs
  *   speedup                       Figure 7: Giraph speedups over Hash
  *   gdparams                      Figures 8–10: step size, adaptive step and fixing, projection
  *   scalability [scales] [iters]  Figure 11: DistGD wall-clock (comma-separated RMAT scales)
  *
  * All but `scalability` run in-core; it alone starts a SparkSession, on
  * `SPARK_MASTER` or else `local[*]`.
  */
object Run {
  def main(args: Array[String]): Unit = {
    def arg(i: Int, default: String): String = if (args.length > i) args(i) else default
    args.headOption.getOrElse("") match {
      case "table1" => Experiments.table1(arg(1, "15").toInt, arg(2, "16").toInt)
      case "multidim" =>
        Experiments.imbalanceTable()
        Experiments.figure5()
        Experiments.figure6()
        Experiments.fourDim()
      case "speedup" => Experiments.speedups()
      case "gdparams" =>
        Experiments.stepSizeSweep()
        Experiments.adaptiveComparison()
        Experiments.projectionComparison()
      case "scalability" =>
        val spark = SparkSession.builder()
          .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
          .appName("scalability").getOrCreate()
        try Experiments.scalability(spark, arg(1, "13,14,15,16").split(",").map(_.toInt).toSeq, arg(2, "30").toInt)
        finally spark.stop()
      case other =>
        System.err.println(s"unknown table '$other'; usage: repro.jobs.Run " +
          "table1 [scale] [k] | multidim | speedup | gdparams | scalability [scales] [iters]")
        sys.exit(2)
    }
  }
}
