package org.apache.spark

import org.apache.spark.rdd.{MapPartitionsRDD, RDD, ShuffledRDD, ZippedPartitionsRDD2, ZippedPartitionsRDD3}
import scala.reflect.ClassTag

/** RDD operations for a loop that submits a job every few milliseconds,
  * without `SparkContext.clean`: the closure cleaner parses class files with
  * ASM on every call. What they call is private to Spark's package, hence
  * this file's package. A closure that cannot be serialized fails in its job.
  */
object DirectRDD {
  def map[T: ClassTag, U: ClassTag](rdd: RDD[T])(f: (Int, Iterator[T]) => Iterator[U]): RDD[U] =
    new MapPartitionsRDD[U, T](rdd, (_, p, it) => f(p, it), false, false, false)

  def zip[A: ClassTag, B: ClassTag, V: ClassTag](a: RDD[A], b: RDD[B])(
      f: (Iterator[A], Iterator[B]) => Iterator[V]): RDD[V] = new ZippedPartitionsRDD2(a.sparkContext, f, a, b, false)

  def zip[A: ClassTag, B: ClassTag, C: ClassTag, V: ClassTag](a: RDD[A], b: RDD[B], c: RDD[C])(
      f: (Iterator[A], Iterator[B], Iterator[C]) => Iterator[V]): RDD[V] = new ZippedPartitionsRDD3(a.sparkContext, f, a, b, c, false)

  /** `rdd.collect()`, then what `SparkContext.runJob` does next: `doCheckpoint`,
    * which cuts the lineage of the RDDs that the job computed and `localCheckpoint` marked.
    */
  def collect[T: ClassTag](rdd: RDD[T]): Array[T] = {
    val sc = rdd.sparkContext
    val out = new Array[Array[T]](rdd.partitions.length)
    sc.dagScheduler.runJob(rdd, (_: TaskContext, it: Iterator[T]) => it.toArray, out.indices,
      sc.getCallSite(), (p: Int, a: Array[T]) => out(p) = a, sc.localProperties.get)
    rdd.doCheckpoint()
    Array.concat(out.toIndexedSeq: _*)
  }

  /** Computes the map output of `shuffled` now, in a job of its own whose last stage writes it
    * (`SparkContext.submitMapStage`), then calls `doCheckpoint` on what the stage computed, as
    * [[collect]] does. A later job that reads `shuffled` skips that stage.
    */
  def runMapStage(shuffled: ShuffledRDD[_, _, _]): Unit = {
    val dep = shuffled.dependencies.head.asInstanceOf[ShuffleDependency[_, _, _]]
    shuffled.sparkContext.submitMapStage(dep).get()
    dep.rdd.doCheckpoint()
  }

  /** Drops `rdd`'s cached blocks as `RDD.unpersist` does, without its warning for a locally
    * checkpointed RDD. The storage level stays set, so `rdd` must not be used again.
    */
  def release(rdd: RDD[_]): Unit = rdd.sparkContext.unpersistRDD(rdd.id, blocking = false)
}
