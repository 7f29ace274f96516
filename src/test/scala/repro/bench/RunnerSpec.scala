package repro.bench

import repro.{RefGraph, ReproSpec, TestGraphs}
import repro.core.{EnumConfig, Estimator, HcQuery, LightIndex}

class RunnerSpec extends ReproSpec {

  private val cfg = EnumConfig(timeBudgetMs = 300000L)

  for (algo <- Runner.algos) {
    test(s"$algo produces consistent metrics on figure1") {
      val r = Runner.run(edgeDf(TestGraphs.figure1), algo, HcQuery(1L, 2L, 4), cfg)
      val want = RefGraph.Ref(TestGraphs.figure1).paths(1L, 2L, 4).size
      assert(r.enum.results == want, s"$algo result count")
      assert(r.queryTimeMs > 0)
      assert(!r.enum.timedOut)
      if (algo.startsWith("IDX") || algo == "PathEnum") assert(r.indexEdges >= 0)
    }
  }

  test("all five algorithms agree on a random graph") {
    val pairs = TestGraphs.randomCases(1, n = 14, e = 40).head._2
    val counts = Runner.algos.map { a =>
      Runner.run(edgeDf(pairs), a, HcQuery(1L, 2L, 5), cfg).enum.results
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
        assert(Runner.run(edgeDf(pairs), a, q, cfg).enum.results ==
          ref.paths(q.s, q.t, q.k).size, s"$a $q")
      val idx = LightIndex.build(spark, edgeDf(pairs), q)
      assert(Estimator.full(spark, idx).forward(q.k) == ref.walks(q.s, q.t, q.k).size, s"$q")
    }
  }

  test("all five algorithms return the reference paths with s or t missing, t unreachable, and k = 2") {
    val cases = Seq(
      HcQuery(1L, 2L, 4) -> Seq((3L, 2L), (4L, 3L)),                     // s missing
      HcQuery(1L, 2L, 4) -> Seq((1L, 3L), (3L, 4L)),                     // t missing
      HcQuery(1L, 2L, 4) -> Seq((1L, 3L), (3L, 4L), (2L, 5L), (5L, 1L)), // t unreachable
      HcQuery(1L, 2L, 3) -> Seq((1L, 3L), (3L, 4L), (4L, 5L), (5L, 2L)), // t beyond k
      // a direct s→t edge, a two-hop path, a longer one and a back edge
      HcQuery(1L, 2L, 2) -> Seq((1L, 2L), (1L, 3L), (3L, 2L), (3L, 4L), (4L, 2L), (2L, 1L)))
    for ((q, pairs) <- cases; a <- Runner.algos) {
      val r = Runner.run(edgeDf(pairs), a, q, cfg.copy(collectPaths = true))
      assert(pathSet(r.enum) == RefGraph.Ref(pairs).paths(q.s, q.t, q.k), s"$a $q on $pairs")
      assert(!r.enum.timedOut, s"$a $q on $pairs")
    }
  }

  test("unknown algorithm is rejected") {
    intercept[RuntimeException](
      Runner.run(edgeDf(TestGraphs.layered), "NOPE", HcQuery(1L, 2L, 4), cfg))
  }
}
