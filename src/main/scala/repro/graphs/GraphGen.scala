package repro.graphs

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SplitMix
import repro.SplitMix.mix

/** Deterministic synthetic graph generators.
  *
  * The paper evaluates on SNAP social networks and Facebook friendship
  * subgraphs, which are unavailable offline; RMAT graphs with matching skew
  * serve as substitutes (see DESIGN.md §4). All generators are deterministic
  * in their seed so local and distributed paths see identical graphs.
  */
object GraphGen {

  /** RMAT edge `i` of `seed`: `scale` recursive quadrant choices with
    * probabilities (a, b, c, 1-a-b-c), drawn as the `nextDouble()`s of
    * `new java.util.Random(mix(seed, i))`. Returns `(u << 32) | v`.
    */
  private def rmatEdge(seed: Long, i: Long, scale: Int, a: Double, b: Double, c: Double): Long = {
    var s = SplitMix.state(mix(seed, i))
    var u = 0L
    var v = 0L
    var bit = 0
    while (bit < scale) {
      val p = SplitMix.double(s)
      s = SplitMix.next(SplitMix.next(s))
      if (p < a) { /* top-left */ }
      else if (p < a + b) { v |= 1L << bit }
      else if (p < a + b + c) { u |= 1L << bit }
      else { u |= 1L << bit; v |= 1L << bit }
      bit += 1
    }
    (u << 32) | v
  }

  /** Distributed RMAT: `2^scale` vertices, `edgeFactor * 2^scale` edge draws,
    * canonicalized (src < dst, no self-loops, distinct); [[rmatLocal]]'s default skew.
    */
  def rmat(spark: SparkSession, scale: Int, edgeFactor: Int, seed: Long = 42): DataFrame = {
    import spark.implicits._
    val numDraws = (1L << scale) * edgeFactor
    val drawn = spark.range(numDraws).as[Long].mapPartitions { it =>
      it.map { i =>
        val e = rmatEdge(seed, i, scale, 0.57, 0.19, 0.19)
        (e >>> 32, e & 0xFFFFFFFFL)
      }
    }.toDF("src", "dst")
    GraphOps.canonicalize(drawn)
  }

  /** Driver-side RMAT with identical semantics to [[rmat]] (same seed ⇒ same
    * graph, modulo vertex-id compaction done by the caller). Power-law degree
    * skew grows with `a`.
    */
  def rmatLocal(scale: Int, edgeFactor: Int, seed: Long = 42,
                a: Double = 0.57, b: Double = 0.19, c: Double = 0.19): LocalGraph = {
    val numDraws = (1L << scale) * edgeFactor
    val es = new Array[Long](numDraws.toInt)
    java.util.Arrays.setAll(es, (i: Int) => rmatEdge(seed, i, scale, a, b, c))
    LocalGraph.fromPacked(1 << scale, es)
  }

  // ---- Named substitutes for the paper's datasets (DESIGN.md §4) ----

  /** LiveJournal-lite: moderate size, moderate skew. */
  def liveJournalLiteLocal(): LocalGraph = rmatLocal(14, 12, seed = 101)

  /** Orkut-lite: denser. */
  def orkutLiteLocal(): LocalGraph = rmatLocal(13, 28, seed = 102)

  /** Twitter-lite: dense with strongly skewed degrees (a = 0.65). */
  def twitterLiteLocal(): LocalGraph = rmatLocal(14, 35, seed = 103, a = 0.65, b = 0.16, c = 0.16)

  /** FB-lite-s: the FB-X stand-ins at RMAT scale `s` (13..17). */
  def fbLite(spark: SparkSession, scale: Int): DataFrame = rmat(spark, scale, 16, seed = 200 + scale)
  def fbLiteLocal(scale: Int): LocalGraph = rmatLocal(scale, 16, seed = 200 + scale)
}
