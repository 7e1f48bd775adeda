package repro

/** SplitMix64 finalizer over `seed + i·φ`: a stateless 64-bit hash of
  * (seed, i). It seeds the per-edge RMAT draws, the per-vertex GD noise and
  * rounding draws and the hash baseline, so each of them is reproducible
  * however the data is partitioned.
  */
object SplitMix {
  def mix(seed: Long, i: Long): Long = {
    var z = seed + i * 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }
}
