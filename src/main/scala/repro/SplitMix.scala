package repro

/** SplitMix64 finalizer over `seed + i·φ`: a stateless 64-bit hash of
  * (seed, i). It seeds the per-edge RMAT draws, the per-vertex GD noise and
  * rounding draws and the hash baseline, so each of them is reproducible
  * however the data is partitioned.
  *
  * The draws themselves are those of a `java.util.Random` made from the
  * hashed seed, taken without the object: its 48-bit linear congruential
  * state is a `Long` here ([[state]], [[next]]), and [[uniform]] and
  * [[gaussian]] return bit for bit its first `nextDouble()` and
  * `nextGaussian()`.
  */
object SplitMix {
  def mix(seed: Long, i: Long): Long = {
    var z = seed + i * 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  private final val Multiplier = 0x5DEECE66DL
  private final val Mask = (1L << 48) - 1
  private final val DoubleUnit = 1.0 / (1L << 53)

  /** The state of `new java.util.Random(seed)`. */
  def state(seed: Long): Long = (seed ^ Multiplier) & Mask

  /** The state after one step of the generator. */
  def next(s: Long): Long = (s * Multiplier + 0xBL) & Mask

  /** `nextDouble()` of a generator in state `s`: it takes two steps, so the
    * state after it is `next(next(s))`.
    */
  def double(s: Long): Double = {
    val a = next(s)
    (((a >>> 22) << 27) + (next(a) >>> 21)) * DoubleUnit
  }

  /** The first `nextDouble()` of `new java.util.Random(seed)`. */
  def uniform(seed: Long): Double = double(state(seed))

  /** The first `nextGaussian()` of `new java.util.Random(seed)`: the polar
    * method, with `StrictMath` as `java.util.Random` has it.
    */
  def gaussian(seed: Long): Double = {
    var s = state(seed)
    var v1 = 0.0
    var q = 0.0
    while (q >= 1 || q == 0) {
      v1 = 2 * double(s) - 1
      s = next(next(s))
      val v2 = 2 * double(s) - 1
      s = next(next(s))
      q = v1 * v1 + v2 * v2
    }
    v1 * StrictMath.sqrt(-2 * StrictMath.log(q) / q)
  }
}
