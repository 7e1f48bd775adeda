package repro.baselines

import repro.SplitMix.mix

/** The trivial stateless baseline: hash the vertex id into one of k parts
  * (Giraph's default strategy). Near-perfect balance on every weight in
  * expectation; edge locality ≈ 1/k.
  */
object HashPartition {

  /** Assignment for vertices 0..n-1. */
  def partition(n: Int, k: Int, seed: Long = 17): Array[Int] =
    Array.tabulate(n)(v => (math.floorMod(mix(seed, v.toLong), k.toLong)).toInt)
}
