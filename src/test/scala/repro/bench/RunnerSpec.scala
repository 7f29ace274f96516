package repro.bench

import repro.{RefGraph, ReproSpec, TestGraphs}
import repro.core.{EnumConfig, Estimator, HcQuery, LightIndex}

class RunnerSpec extends ReproSpec {

  private val cfg = EnumConfig(timeBudgetMs = 300000L)

  for (algo <- Runner.algos) {
    test(s"$algo produces consistent metrics on figure1") {
      val m = Runner.run(spark, "fig1", edgeDf(TestGraphs.figure1), algo,
        HcQuery(1L, 2L, 4), cfg)
      val want = RefGraph.Ref(TestGraphs.figure1).paths(1L, 2L, 4).size
      assert(m.results == want, s"$algo result count")
      assert(m.queryTimeMs > 0)
      assert(!m.timedOut)
      assert(m.algo == algo && m.graph == "fig1" && m.k == 4)
      if (algo.startsWith("IDX") || algo == "PathEnum") assert(m.indexEdges >= 0)
    }
  }

  test("all five algorithms agree on a random graph") {
    val pairs = TestGraphs.randomCases(1, n = 14, e = 40).head._2
    val counts = Runner.algos.map { a =>
      Runner.run(spark, "rnd", edgeDf(pairs), a, HcQuery(1L, 2L, 5), cfg).results
    }
    assert(counts.distinct.size == 1, s"counts $counts diverge")
    assert(counts.head == RefGraph.Ref(pairs).paths(1L, 2L, 5).size)
  }

  test("a parallel edge yields its path once in all five algorithms and the DP") {
    val pairs = Seq((1L, 3L), (1L, 3L), (3L, 2L))
    val q = HcQuery(1L, 2L, 3)
    for (a <- Runner.algos)
      assert(Runner.run(spark, "multi", edgeDf(pairs), a, q, cfg).results == 1, a)
    val idx = LightIndex.build(spark, edgeDf(pairs), q)
    try assert(Estimator.full(spark, idx).forward(3) == RefGraph.Ref(pairs).walks(1L, 2L, 3).size)
    finally idx.unpersist()
  }

  test("unknown algorithm is rejected") {
    intercept[RuntimeException](
      Runner.run(spark, "x", edgeDf(TestGraphs.layered), "NOPE", HcQuery(1L, 2L, 4), cfg))
  }
}
