package repro

import org.scalatest.funsuite.AnyFunSuite

/** The draws of [[SplitMix]] are those of `java.util.Random`, bit for bit. */
class SplitMixSpec extends AnyFunSuite {

  /** 10^5 hashed seeds and the seeds at the ends of the range. */
  private val seeds = (0L until 100000L).map(SplitMix.mix(17, _)) ++
    Seq(0L, 1L, -1L, Long.MinValue, Long.MaxValue, 0x5DEECE66DL)

  private def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)

  test("uniform is the first nextDouble() of java.util.Random") {
    seeds.foreach(s => assert(bits(SplitMix.uniform(s)) == bits(new java.util.Random(s).nextDouble()), s"seed $s"))
  }

  test("gaussian is the first nextGaussian() of java.util.Random, also where the polar method rejects") {
    var rejected = 0
    seeds.foreach { s =>
      assert(bits(SplitMix.gaussian(s)) == bits(new java.util.Random(s).nextGaussian()), s"seed $s")
      val r = new java.util.Random(s)
      val (v1, v2) = (2 * r.nextDouble() - 1, 2 * r.nextDouble() - 1)
      if (v1 * v1 + v2 * v2 >= 1) rejected += 1
    }
    assert(rejected > 10000, s"$rejected seeds reject their first pair")
  }

  test("double and next step through the nextDouble() sequence of java.util.Random") {
    seeds.take(1000).foreach { s =>
      val r = new java.util.Random(s)
      var st = SplitMix.state(s)
      for (k <- 0 until 20) {
        assert(bits(SplitMix.double(st)) == bits(r.nextDouble()), s"seed $s, draw $k")
        st = SplitMix.next(SplitMix.next(st))
      }
    }
  }
}
