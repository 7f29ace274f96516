package repro.core

import repro.{RefGraph, ReproSpec, TestGraphs}

class PathEnumSpec extends ReproSpec {

  test("small search space goes through the preliminary DFS branch") {
    val r = PathEnum.run(spark, edgeDf(TestGraphs.cyclic), HcQuery(1L, 2L, 4),
      EnumConfig(timeBudgetMs = 300000L, collectPaths = true), tau = 1e6)
    assert(r.planInfo.plan == "DFS(prelim)")
    assert(pathSet(r.enum) == Set(List(1L, 3L, 2L)))
  }

  test("tau = 0 forces the full optimizer") {
    val r = PathEnum.run(spark, edgeDf(TestGraphs.layered), HcQuery(1L, 2L, 4),
      EnumConfig(timeBudgetMs = 300000L, collectPaths = true), tau = 0.0)
    assert(r.planInfo.plan == "DFS(cost)" || r.planInfo.plan == "JOIN")
    assert(r.planInfo.tDfs.isDefined && r.planInfo.tJoin.isDefined)
    assert(pathSet(r.enum) == RefGraph.Ref(TestGraphs.layered).paths(1L, 2L, 4))
  }

  test("optimizer picks the plan with lower modeled cost") {
    val r = PathEnum.run(spark, edgeDf(TestGraphs.layered), HcQuery(1L, 2L, 4),
      EnumConfig(timeBudgetMs = 300000L, collectPaths = true), tau = 0.0)
    val (td, tj) = (r.planInfo.tDfs.get, r.planInfo.tJoin.get)
    if (td <= tj) assert(r.planInfo.plan == "DFS(cost)")
    else assert(r.planInfo.plan == "JOIN")
  }

  test("queryTimeMs covers index build + optimize + enumerate") {
    val r = PathEnum.run(spark, edgeDf(TestGraphs.layered), HcQuery(1L, 2L, 4))
    assert(r.queryTimeMs >= r.indexBuildMs + r.optimizeMs)
    assert(r.indexBuildMs > 0)
  }

  test("idxDfs and idxJoin agree with PathEnum results") {
    val q = HcQuery(1L, 2L, 4)
    val e = edgeDf(TestGraphs.figure1)
    val cfg = EnumConfig(timeBudgetMs = 300000L, collectPaths = true)
    val a = PathEnum.run(spark, e, q, cfg)
    val b = PathEnum.idxDfs(e, q, cfg)
    val c = PathEnum.idxJoin(e, q, cfg)
    assert(pathSet(a.enum) == pathSet(b.enum))
    assert(pathSet(a.enum) == pathSet(c.enum))
  }

  test("idxJoin records the DP-chosen cut") {
    val r = PathEnum.idxJoin(edgeDf(TestGraphs.layered), HcQuery(1L, 2L, 4))
    assert(r.planInfo.cut.exists(c => c >= 1 && c <= 3))
  }

  for ((name, pairs) <- TestGraphs.randomCases(5, n = 13, e = 34)) {
    test(s"PathEnum (both tau regimes) equals reference on $name") {
      val q = HcQuery(1L, 2L, 4)
      val want = RefGraph.Ref(pairs).paths(1L, 2L, 4)
      val lo = PathEnum.run(spark, edgeDf(pairs), q, EnumConfig(timeBudgetMs = 300000L, collectPaths = true), tau = 0.0)
      val hi = PathEnum.run(spark, edgeDf(pairs), q, EnumConfig(timeBudgetMs = 300000L, collectPaths = true), tau = 1e9)
      assert(pathSet(lo.enum) == want, s"plan=${lo.planInfo.plan}")
      assert(pathSet(hi.enum) == want, s"plan=${hi.planInfo.plan}")
    }
  }
}
