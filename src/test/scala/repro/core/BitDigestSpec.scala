package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.graphs.{GraphGen, LocalGraph, TestGraphs}

/** Every output bit of the GD partitioners on small graphs, pinned as 64-bit
  * digests: `x`, sides, iterations, locality and imbalances of
  * `LocalGD.bipartition`, the parts of `RecursivePartitioner`, and the
  * assignment, locality, imbalances and iterations of `DistGD`. A change
  * that claims to leave every output as it was passes this suite unchanged;
  * a change that moves outputs on purpose updates the digests below and
  * says so.
  */
class BitDigestSpec extends SparkSpec {

  /** FNV-1a over the eight bytes of each value, low byte first. */
  private final class Digest {
    private var h = 0xcbf29ce484222325L
    def long(v: Long): Digest = {
      var k = 0
      while (k < 8) { h = (h ^ ((v >>> (8 * k)) & 0xff)) * 0x100000001b3L; k += 1 }
      this
    }
    def double(v: Double): Digest = long(java.lang.Double.doubleToRawLongBits(v))
    def doubles(a: Array[Double]): Digest = { long(a.length.toLong); a.foreach(double); this }
    def ints(a: Array[Int]): Digest = { long(a.length.toLong); a.foreach(i => long(i.toLong)); this }
    def hex: String = f"$h%016x"
  }

  private lazy val graphs: Map[String, LocalGraph] = Map(
    "rmat10" -> GraphGen.rmatLocal(10, 8, seed = 77),
    "planted" -> TestGraphs.plantedBisection(100, 0.15, 0.01, seed = 11),
    "skew" -> GraphGen.rmatLocal(10, 8, seed = 103, a = 0.65, b = 0.16, c = 0.16))

  private val configs: Seq[(String, GDConfig)] = Seq(
    "default" -> GDConfig(seed = 5),
    "no fixing" -> GDConfig(vertexFixing = false, seed = 5),
    "exact" -> GDConfig(projection = ProjectionMethod.Exact, seed = 5),
    // Three steps leave the slabs to the final projection's passes.
    "final projection" -> GDConfig(eps = 0.001, iterations = 3, seed = 5))

  private def check(name: String)(digest: => Digest): Unit = test(s"output bits unchanged: $name") {
    val got = digest.hex
    assert(expected.get(name).contains(got), s"$name: digest $got")
  }

  for (graph <- Seq("rmat10", "planted", "skew"); d <- Seq(1, 2, 4); (c, cfg) <- configs)
    check(s"LocalGD.bipartition, $graph, d=$d, $c") {
      val g = graphs(graph)
      val r = LocalGD.bipartition(g, Weights.localAll(g, Weights.All.take(d)), cfg)
      new Digest().doubles(r.x).ints(r.side).long(r.iterations.toLong).double(r.locality).doubles(r.imbalances)
    }

  for (graph <- Seq("rmat10", "planted"); d <- Seq(1, 2))
    check(s"RecursivePartitioner k=8, $graph, d=$d") {
      val g = graphs(graph)
      new Digest().ints(RecursivePartitioner.partition(g, Weights.localAll(g, Weights.All.take(d)), 8,
        GDConfig(eps = 0.03, seed = 26)))
    }

  private val distCfg = GDConfig(iterations = 30, seed = 5)

  /** `call` on 4 blocks of the RMAT scale-7 edge list. */
  private def onRmat7[T](call: DataFrame => T): T = {
    val edges = TestGraphs.toDF(spark, GraphGen.rmatLocal(7, 4, seed = 48)).persist()
    try withBlocks(4)(call(edges)) finally edges.unpersist()
  }

  /** The parts of an assignment, ordered by vertex id. */
  private def partsById(assign: DataFrame): Array[Int] =
    assign.collect().map(r => (r.getLong(0), r.getInt(1))).sortBy(_._1).map(_._2)

  for ((d, fixing) <- Seq((1, true), (2, false)))
    check(s"DistGD.bipartition, rmat7, d=$d, vertex fixing $fixing") {
      onRmat7 { e =>
        val r = DistGD.bipartition(spark, e, Weights.All.take(d), distCfg.copy(vertexFixing = fixing))
        new Digest().ints(partsById(r.assign)).double(r.locality).doubles(r.imbalances).long(r.iterations.toLong)
      }
    }

  check("DistGD.partitionK k=4, rmat7, d=2") {
    new Digest().ints(onRmat7(e => partsById(DistGD.partitionK(spark, e, Weights.All.take(2), 4, distCfg))))
  }

  // A·z of Gaussian z: the gradient of every vertex, by id, then the sum of
  // each block's gradient added in block order. These bits depend on the
  // order of every add of the mat-vec and of the driver's sum.
  for (m <- Seq(4, 64))
    check(s"DistGD A·z and block sums of Gaussian z, rmat7, $m blocks") {
      val edges = TestGraphs.toDF(spark, GraphGen.rmatLocal(7, 4, seed = 48)).persist()
      try {
        val groups = new DistGD.Groups(m, math.min(m, spark.sparkContext.defaultParallelism))
        val blocks = DistGD.weighted(DistGD.buildBlocks(edges, groups), Seq(Weights.ofDegree(Weights.Unit)), groups).persist()
        val z = (b: DistGD.Block, _: DistGD.Block) => b.ids.map(GDKernel.gauss(5, _))
        val grad = DistGD.matvec(blocks, blocks, groups)(z)((b, _, g) => b.ids.zip(g)).collect().flatten.sortBy(_._1)
        val sums = DistGD.sumUp(DistGD.matvec(blocks, blocks, groups)(z)((_, _, g) => Array(g.sum)))
        blocks.unpersist()
        val digest = new Digest().long(grad.length.toLong)
        grad.foreach { case (id, g) => digest.long(id).double(g) }
        digest.doubles(sums)
      } finally edges.unpersist()
    }

  // Taken before vertex fixing moved into `GDKernel.Rows`, a change that
  // kept every bit.
  private lazy val expected: Map[String, String] = Map(
    "LocalGD.bipartition, rmat10, d=1, default" -> "b9a9e9666fd07038",
    "LocalGD.bipartition, rmat10, d=1, no fixing" -> "66d17732334d3028",
    "LocalGD.bipartition, rmat10, d=1, exact" -> "b61d2e9ca01a11ab",
    "LocalGD.bipartition, rmat10, d=1, final projection" -> "108daa0279755cb5",
    "LocalGD.bipartition, rmat10, d=2, default" -> "2766b79dfaae77c0",
    "LocalGD.bipartition, rmat10, d=2, no fixing" -> "e6d4e3d0c6b5a07e",
    "LocalGD.bipartition, rmat10, d=2, exact" -> "6bb0044cc07183c5",
    "LocalGD.bipartition, rmat10, d=2, final projection" -> "92b036673e8e0be1",
    "LocalGD.bipartition, rmat10, d=4, default" -> "dd5c22621b286390",
    "LocalGD.bipartition, rmat10, d=4, no fixing" -> "79e3c1878f2dd3bc",
    "LocalGD.bipartition, rmat10, d=4, exact" -> "af6cba37ae38873d",
    "LocalGD.bipartition, rmat10, d=4, final projection" -> "bf09eedf942d21bd",
    "LocalGD.bipartition, planted, d=1, default" -> "557156cd1977b693",
    "LocalGD.bipartition, planted, d=1, no fixing" -> "9ff9ed03929a0eed",
    "LocalGD.bipartition, planted, d=1, exact" -> "19df4f8145a2957e",
    "LocalGD.bipartition, planted, d=1, final projection" -> "8d29805c76dd596f",
    "LocalGD.bipartition, planted, d=2, default" -> "c100a7e97944f583",
    "LocalGD.bipartition, planted, d=2, no fixing" -> "475d0ece6e155098",
    "LocalGD.bipartition, planted, d=2, exact" -> "0d57bdce2fd9937b",
    "LocalGD.bipartition, planted, d=2, final projection" -> "1e43c78a6bea2150",
    "LocalGD.bipartition, planted, d=4, default" -> "9beaab3d27ccdd67",
    "LocalGD.bipartition, planted, d=4, no fixing" -> "cb98ac1d41d5f9cf",
    "LocalGD.bipartition, planted, d=4, exact" -> "719eada5e317d53c",
    "LocalGD.bipartition, planted, d=4, final projection" -> "c691e5801e4cde27",
    "LocalGD.bipartition, skew, d=1, default" -> "65b7be5e89332e7c",
    "LocalGD.bipartition, skew, d=1, no fixing" -> "1b0e466192801b4a",
    "LocalGD.bipartition, skew, d=1, exact" -> "7f3d58968f5086eb",
    "LocalGD.bipartition, skew, d=1, final projection" -> "0f81feff75b99d28",
    "LocalGD.bipartition, skew, d=2, default" -> "bdd7757d044b97e6",
    "LocalGD.bipartition, skew, d=2, no fixing" -> "5faa97b91cef51d2",
    "LocalGD.bipartition, skew, d=2, exact" -> "df2b47d5a832d8e5",
    "LocalGD.bipartition, skew, d=2, final projection" -> "33e5581b4b97d1cd",
    "LocalGD.bipartition, skew, d=4, default" -> "7dcbc08def07a42b",
    "LocalGD.bipartition, skew, d=4, no fixing" -> "656932ff3ae2c21b",
    "LocalGD.bipartition, skew, d=4, exact" -> "c6860f0f77d9a5c7",
    "LocalGD.bipartition, skew, d=4, final projection" -> "0ebdbfedff3b73f7",
    "RecursivePartitioner k=8, rmat10, d=1" -> "fd50ad07530b56bb",
    "RecursivePartitioner k=8, rmat10, d=2" -> "8fcf16fc3636707f",
    "RecursivePartitioner k=8, planted, d=1" -> "e046983908bacdad",
    "RecursivePartitioner k=8, planted, d=2" -> "375a5b61c0ccface",
    "DistGD.bipartition, rmat7, d=1, vertex fixing true" -> "5eb9e07c8eaa345e",
    "DistGD.bipartition, rmat7, d=2, vertex fixing false" -> "7d76682fd4827af6",
    "DistGD.partitionK k=4, rmat7, d=2" -> "e2841136ee216bce",
    // Taken at the message-sum exchange, before each block kept ghost rows.
    "DistGD A·z and block sums of Gaussian z, rmat7, 4 blocks" -> "ac34851a5e2a9d53",
    "DistGD A·z and block sums of Gaussian z, rmat7, 64 blocks" -> "523ba1d9c5755d95")
}
