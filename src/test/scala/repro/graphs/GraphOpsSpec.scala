package repro.graphs

import repro.{Oracle, SparkSpec}

/** DataFrame metric jobs, Oracle-checked against DuckDB over the same
  * tables.
  */
class GraphOpsSpec extends SparkSpec {
  import spark.implicits._

  private def assignDF(g: LocalGraph, assign: Array[Int]) =
    SqlMetrics.assignToDF(spark, assign)

  test("canonicalize flips, dedupes, and drops loops") {
    val raw = Seq((1L, 2L), (2L, 1L), (3L, 3L), (4L, 2L)).toDF("src", "dst")
    val c = GraphOps.canonicalize(raw).collect().map(r => (r.getLong(0), r.getLong(1))).sorted
    assert(c.toSeq == Seq((1L, 2L), (2L, 4L)))
  }

  test("symmetrize doubles the canonical edge count") {
    val e = GraphGen.rmat(spark, 7, 4, seed = 2)
    assert(SqlMetrics.symmetrize(e).count() == 2 * e.count())
  }

  for ((name, mk) <- Seq[(String, () => LocalGraph)](
    "rmat-7"   -> (() => GraphGen.rmatLocal(7, 4, seed = 21)),
    "planted"  -> (() => TestGraphs.plantedBisection(25, 0.3, 0.05, seed = 22)),
    "cliques"  -> (() => TestGraphs.twoCliquesBridge(8)),
  )) {
    test(s"degrees match DuckDB ($name)") {
      val g = mk()
      val edges = TestGraphs.toDF(spark, g)
      Oracle.assertEquivalent(
        SqlMetrics.degrees(edges),
        """SELECT x AS id, COUNT(*) AS deg
          |FROM (SELECT src AS x FROM edges UNION ALL SELECT dst AS x FROM edges)
          |GROUP BY x""".stripMargin,
        "edges" -> edges)
    }

    test(s"localityDF matches DuckDB ($name)") {
      val g = mk()
      val edges = TestGraphs.toDF(spark, g)
      val assign = assignDF(g, Array.tabulate(g.n)(v => v % 2))
      Oracle.assertEquivalent(
        SqlMetrics.localityDF(edges, assign),
        """SELECT SUM(CASE WHEN a.part = b.part THEN 1 ELSE 0 END) AS uncut,
          |       COUNT(*) AS total,
          |       SUM(CASE WHEN a.part = b.part THEN 1 ELSE 0 END) * 1.0 / COUNT(*) AS locality
          |FROM edges e
          |JOIN assign a ON e.src = a.id
          |JOIN assign b ON e.dst = b.id""".stripMargin,
        "edges" -> edges, "assign" -> assign)
    }

    test(s"partWeights matches DuckDB ($name)") {
      val g = mk()
      val assign = assignDF(g, Array.tabulate(g.n)(v => v % 3))
      val weights = (0 until g.n).map(v => (v.toLong, g.degree(v).toDouble)).toDF("id", "w")
      Oracle.assertEquivalent(
        SqlMetrics.partWeights(assign, weights, "w"),
        """SELECT a.part AS part, SUM(CAST(w.w AS DOUBLE)) AS total
          |FROM assign a JOIN weights w ON a.id = w.id
          |GROUP BY a.part""".stripMargin,
        "assign" -> assign, "weights" -> weights)
    }
  }

  test("edgeLocality scalar agrees with the LocalGraph computation") {
    val g = TestGraphs.plantedBisection(30, 0.3, 0.05, seed = 31)
    val assign = Array.tabulate(g.n)(v => if (v < 30) 0 else 1)
    val df = SqlMetrics.edgeLocality(TestGraphs.toDF(spark, g), assignDF(g, assign))
    assert(math.abs(df - g.edgeLocality(assign)) < 1e-12)
  }

  test("imbalance DF agrees with imbalanceLocal") {
    val g = GraphGen.rmatLocal(8, 4, seed = 41)
    val assign = Array.tabulate(g.n)(v => v % 4)
    val w = Array.tabulate(g.n)(v => g.degree(v).toDouble)
    val weights = (0 until g.n).map(v => (v.toLong, w(v))).toDF("id", "w")
    val df = SqlMetrics.imbalance(assignDF(g, assign), weights, "w", 4)
    assert(math.abs(df - GraphOps.imbalanceLocal(assign, w, 4)) < 1e-9)
  }

  test("imbalance is zero for a perfectly balanced unit-weight assignment") {
    val assign = Array.tabulate(100)(_ % 4)
    assert(GraphOps.imbalanceLocal(assign, Array.fill(100)(1.0), 4) == 0.0)
  }

  test("imbalance reflects a missing part (k parts averaged)") {
    // 100 unit-weight vertices in 2 of 4 parts: max=50, avg=25 => imb=1
    val assign = Array.tabulate(100)(_ % 2)
    assert(math.abs(GraphOps.imbalanceLocal(assign, Array.fill(100)(1.0), 4) - 1.0) < 1e-12)
  }

  test("vertexIds covers both endpoints") {
    val e = Seq((1L, 2L), (2L, 3L)).toDF("src", "dst")
    val ids = GraphOps.vertexIds(e).collect().map(_.getLong(0)).sorted
    assert(ids.toSeq == Seq(1L, 2L, 3L))
  }
}
