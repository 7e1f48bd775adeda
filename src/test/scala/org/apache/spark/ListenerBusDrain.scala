package org.apache.spark

/** Waits until the listener bus has delivered every queued event, so that
  * counts a test's listener took are complete. The bus is private to
  * Spark's package, hence this file's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
