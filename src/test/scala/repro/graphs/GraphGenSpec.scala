package repro.graphs

import repro.SparkSpec

/** Generator determinism, bounds, and local/distributed agreement. */
class GraphGenSpec extends SparkSpec {

  test("rmat DF is canonical: src < dst, no duplicates") {
    val e = GraphGen.rmat(spark, 8, 4, seed = 1)
    import org.apache.spark.sql.functions._
    assert(e.where(col("src") >= col("dst")).count() == 0)
    assert(e.count() == e.distinct().count())
  }

  test("rmat DF vertex ids are within [0, 2^scale)") {
    val e = GraphGen.rmat(spark, 8, 4, seed = 1)
    import org.apache.spark.sql.functions._
    val r = e.agg(min(least(col("src"), col("dst"))), max(greatest(col("src"), col("dst")))).collect()(0)
    assert(r.getLong(0) >= 0 && r.getLong(1) < 256)
  }

  test("rmat is deterministic in the seed") {
    val a = GraphGen.rmat(spark, 8, 4, seed = 9).collect().map(r => (r.getLong(0), r.getLong(1))).sorted
    val b = GraphGen.rmat(spark, 8, 4, seed = 9).collect().map(r => (r.getLong(0), r.getLong(1))).sorted
    assert(a.toSeq == b.toSeq)
  }

  test("different seeds give different graphs") {
    val a = GraphGen.rmat(spark, 8, 4, seed = 9).collect().map(r => (r.getLong(0), r.getLong(1))).sorted
    val b = GraphGen.rmat(spark, 8, 4, seed = 10).collect().map(r => (r.getLong(0), r.getLong(1))).sorted
    assert(a.toSeq != b.toSeq)
  }

  for (scale <- Seq(6, 7, 8)) {
    test(s"rmatLocal and rmat(DF) draw identical edges (scale=$scale)") {
      val local = GraphGen.rmatLocal(scale, 4, seed = 33)
      val dfEdges = GraphGen.rmat(spark, scale, 4, seed = 33)
        .collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt)).sorted
      assert(local.edges.toSeq.sorted == dfEdges.toSeq)
    }
  }

  test("rmat skew: higher a concentrates degrees (max degree grows)") {
    val mild = GraphGen.rmatLocal(10, 8, seed = 4, a = 0.45, b = 0.22, c = 0.22)
    val skewed = GraphGen.rmatLocal(10, 8, seed = 4, a = 0.7, b = 0.12, c = 0.12)
    val maxMild = (0 until mild.n).map(mild.degree).max
    val maxSkew = (0 until skewed.n).map(skewed.degree).max
    assert(maxSkew > maxMild)
  }

  test("plantedBisection: intra density exceeds inter density") {
    val g = TestGraphs.plantedBisection(60, 0.2, 0.02, seed = 5)
    val within = g.edges.count { case (u, v) => (u < 60) == (v < 60) }
    val across = g.edges.length - within
    assert(within > 4 * across)
  }

  test("plantedKCommunities has k*per vertices") {
    val g = TestGraphs.plantedKCommunities(4, 30, 0.3, 0.02)
    assert(g.n == 120)
    assert(g.numEdges > 0)
  }

  test("twoCliquesBridge structure") {
    val g = TestGraphs.twoCliquesBridge(6)
    assert(g.n == 12)
    assert(g.numEdges == 15 + 15 + 1)
  }

  test("toDF roundtrips a LocalGraph") {
    val g = TestGraphs.plantedBisection(20, 0.3, 0.05, seed = 6)
    val (g2, ids) = LocalGraph.fromDataFrame(TestGraphs.toDF(spark, g))
    // isolated vertices are dropped by the DF path; compare edge sets via ids
    val e2 = g2.edges.map { case (u, v) =>
      val (a, b) = (ids(u).toInt, ids(v).toInt); if (a < b) (a, b) else (b, a)
    }.sorted
    assert(e2.toSeq == g.edges.toSeq.sorted)
  }

  test("named substitutes are reproducible and non-trivial") {
    val lj = GraphGen.liveJournalLiteLocal()
    assert(lj.n == (1 << 14))
    assert(lj.numEdges > 50000)
    val lj2 = GraphGen.liveJournalLiteLocal()
    assert(lj.numEdges == lj2.numEdges)
  }
}
