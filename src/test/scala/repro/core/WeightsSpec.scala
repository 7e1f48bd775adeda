package repro.core

import repro.{Oracle, SparkSpec}
import repro.graphs.{GraphGen, SqlMetrics, TestGraphs}

/** Weight vectors: local vs DataFrame agreement and Oracle checks. */
class WeightsSpec extends SparkSpec {

  test("unit weights are all ones") {
    val g = GraphGen.rmatLocal(7, 4, seed = 1)
    assert(Weights.local(g, Weights.Unit).forall(_ == 1.0))
  }

  test("degree weights match degrees") {
    val g = GraphGen.rmatLocal(7, 4, seed = 1)
    val w = Weights.local(g, Weights.Degree)
    assert((0 until g.n).forall(v => w(v) == g.degree(v).toDouble))
  }

  test("sqrt and squared weights are consistent with degree") {
    val g = GraphGen.rmatLocal(7, 4, seed = 1)
    val d = Weights.local(g, Weights.Degree)
    val s = Weights.local(g, Weights.SqrtDegree)
    val q = Weights.local(g, Weights.DegreeSquared)
    (0 until g.n).foreach { v =>
      assert(math.abs(s(v) * s(v) - d(v)) < 1e-9)
      assert(math.abs(q(v) - d(v) * d(v)) < 1e-9)
    }
  }

  test("unknown spec is rejected") {
    val g = GraphGen.rmatLocal(6, 3)
    intercept[IllegalArgumentException] { Weights.local(g, "bogus") }
  }

  test("weightsDF agrees with local weights on edge-incident vertices") {
    val g = GraphGen.rmatLocal(7, 4, seed = 2)
    val edges = TestGraphs.toDF(spark, g)
    val df = SqlMetrics.weightsDF(spark, edges, Seq(Weights.Unit, Weights.Degree)).collect()
    df.foreach { r =>
      val id = r.getLong(0).toInt
      assert(r.getDouble(1) == 1.0)
      assert(r.getDouble(2) == g.degree(id).toDouble)
    }
  }

  test("weightsDF degree column matches DuckDB") {
    val g = GraphGen.rmatLocal(7, 4, seed = 3)
    val edges = TestGraphs.toDF(spark, g)
    Oracle.assertEquivalent(
      SqlMetrics.weightsDF(spark, edges, Seq(Weights.Degree))
        .select(org.apache.spark.sql.functions.col("id"),
                org.apache.spark.sql.functions.col("w0")),
      """SELECT x AS id, CAST(COUNT(*) AS DOUBLE) AS w0
        |FROM (SELECT src AS x FROM edges UNION ALL SELECT dst AS x FROM edges)
        |GROUP BY x""".stripMargin,
      "edges" -> edges)
  }
}
