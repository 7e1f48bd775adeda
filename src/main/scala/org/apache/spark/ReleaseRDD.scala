package org.apache.spark

import org.apache.spark.rdd.RDD

/** Drops an RDD's cached blocks without `RDD.unpersist`, which logs a
  * warning for every locally checkpointed RDD. `SparkContext.unpersistRDD`
  * is what `unpersist` calls after the warning, and it is private to
  * Spark's package, hence this file's package. Unlike `unpersist` it leaves
  * the RDD's storage level set, so the RDD still reports itself cached: a
  * released RDD must not be used again (a locally checkpointed one cannot be
  * recomputed anyway).
  */
object ReleaseRDD {
  def apply(rdd: RDD[_]): Unit = rdd.sparkContext.unpersistRDD(rdd.id, blocking = false)
}
