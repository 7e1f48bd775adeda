package org.apache.spark

/** Waits until the listener bus has delivered every queued event, so that
  * counters read after a call are complete. The bus is private to Spark's
  * package, hence this file's package.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
