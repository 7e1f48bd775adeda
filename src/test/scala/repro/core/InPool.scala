package repro.core

import java.util.concurrent.{Callable, ForkJoinPool}

/** Runs code as a task of its own fork-join pool, so that every fork it
  * makes goes to that pool's workers.
  */
object InPool {
  def apply[T](threads: Int)(f: => T): T = {
    val pool = new ForkJoinPool(threads)
    try pool.submit(new Callable[T] { def call(): T = f }).get()
    finally pool.shutdown()
  }
}
