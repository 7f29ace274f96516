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
    // The walk counts include the self-loops: `Adjacency` keeps them as
    // slots that the DP counts and the search's on-path test skips.
    val cases = (HcQuery(1L, 2L, 3) -> Seq((1L, 3L), (1L, 3L), (3L, 2L))) +:
      (2 to 5).map(k => HcQuery(1L, 2L, k) -> TestGraphs.selfLoops)
    for ((q, pairs) <- cases) {
      val ref = RefGraph.Ref(pairs)
      for (a <- Runner.algos)
        assert(Runner.run(spark, "multi", edgeDf(pairs), a, q, cfg).results ==
          ref.paths(q.s, q.t, q.k).size, s"$a $q")
      val idx = LightIndex.build(spark, edgeDf(pairs), q)
      assert(Estimator.full(spark, idx).forward(q.k) == ref.walks(q.s, q.t, q.k).size, s"$q")
    }
  }

  test("unknown algorithm is rejected") {
    intercept[RuntimeException](
      Runner.run(spark, "x", edgeDf(TestGraphs.layered), "NOPE", HcQuery(1L, 2L, 4), cfg))
  }
}
