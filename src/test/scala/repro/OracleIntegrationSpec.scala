package repro

import repro.core.{EnumConfig, HcQuery, LeftDeepEnum, LightIndex, PathEnum}

/** Result-correctness tests backed by the DuckDB oracle: the same edge
  * table is enumerated by a recursive CTE in DuckDB and diffed, via
  * [[Oracle.assertEquivalent]], against a DataFrame of the paths the
  * program returns.
  */
class OracleIntegrationSpec extends ReproSpec {

  /** DuckDB-side enumerator: recursive CTE over VARCHAR vertex ids, path
    * encoded as a '>'-separated string; interior vertices stay distinct and
    * are never s (first token) or t (recursion stops at t). */
  private def duckSql(s: Long, t: Long, k: Int): String =
    s"""WITH RECURSIVE walks(path, last, len) AS (
       |  SELECT src || '>' || dst, dst, 1 FROM edges WHERE src = '$s'
       |  UNION ALL
       |  SELECT w.path || '>' || e.dst, e.dst, w.len + 1
       |  FROM walks w JOIN edges e ON w.last = e.src
       |  WHERE w.len < $k AND w.last <> '$t'
       |    AND NOT contains('>' || w.path || '>', '>' || e.dst || '>')
       |)
       |SELECT path AS path FROM walks WHERE last = '$t'""".stripMargin

  private def check(pairs: Seq[(Long, Long)], q: HcQuery): Unit = {
    import spark.implicits._
    val edges = edgeDf(pairs)
    val r = LeftDeepEnum.search(LightIndex.build(spark, edges, q).local, q,
      EnumConfig(timeBudgetMs = 300000L, collectPaths = true))
    val got = r.paths.get.map(_.mkString(">")).toDF("path")
    Oracle.assertEquivalent(got, duckSql(q.s, q.t, q.k), "edges" -> edges)
  }

  test("oracle agrees on the layered DAG") { check(TestGraphs.layered, HcQuery(1L, 2L, 4)) }
  test("oracle agrees on the cyclic graph") { check(TestGraphs.cyclic, HcQuery(1L, 2L, 4)) }
  test("oracle agrees on figure1") { check(TestGraphs.figure1, HcQuery(1L, 2L, 4)) }
  test("oracle agrees with k=2") {
    check(Seq((1L, 2L), (1L, 3L), (3L, 2L)), HcQuery(1L, 2L, 2))
  }
  test("oracle agrees with multi-digit vertex ids") {
    check(Seq((1L, 11L), (11L, 12L), (12L, 2L), (1L, 111L), (111L, 2L)), HcQuery(1L, 2L, 4))
  }

  for (((name, pairs), i) <- TestGraphs.randomCases(5, n = 12, e = 30).zipWithIndex) {
    test(s"oracle agrees on $name k=${3 + i % 3}") {
      check(pairs, HcQuery(1L, 2L, 3 + i % 3))
    }
  }

  test("oracle agrees with IDX-JOIN output") {
    import spark.implicits._
    val q = HcQuery(1L, 2L, 4)
    val edges = edgeDf(TestGraphs.figure1)
    val r = PathEnum.idxJoin(edges, q, EnumConfig(timeBudgetMs = 300000L, collectPaths = true))
    val got = r.enum.paths.get.map(_.mkString(">")).toDF("path")
    Oracle.assertEquivalent(got, duckSql(1L, 2L, 4), "edges" -> edges)
  }
}
