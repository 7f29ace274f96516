package repro.core

import repro.{RefGraph, ReproSpec, TestGraphs}

class JoinEnumSpec extends ReproSpec {

  private val cfg = EnumConfig(timeBudgetMs = 300000L, collectPaths = true)

  private def idxJoin(pairs: Seq[(Long, Long)], q: HcQuery, cut: Int): EnumResult =
    JoinEnum.search(driverIndex(pairs, q).local, q, cut, cfg)

  test("layered DAG at middle cut") {
    val r = idxJoin(TestGraphs.layered, HcQuery(1L, 2L, 4), 2)
    assert(pathSet(r) == RefGraph.Ref(TestGraphs.layered).paths(1L, 2L, 4))
  }

  test("padding preserves paths shorter than k (figure1)") {
    val want = RefGraph.Ref(TestGraphs.figure1).paths(1L, 2L, 4)
    for (cut <- 1 to 3)
      assert(pathSet(idxJoin(TestGraphs.figure1, HcQuery(1L, 2L, 4), cut)) == want,
        s"cut=$cut")
  }

  test("cyclic graph: walks across the cut are rejected") {
    for (cut <- 1 to 3)
      assert(pathSet(idxJoin(TestGraphs.cyclic, HcQuery(1L, 2L, 4), cut))
        == Set(List(1L, 3L, 2L)), s"cut=$cut")
  }

  test("cross-half duplicate vertices are rejected") {
    // 1->3->4->2 and 1->4->3->2: halves (1,3),(3,4) x (4,3),(3,2) could
    // recombine into 1,3,4,3,2 — must be filtered.
    val pairs = Seq((1L, 3L), (3L, 4L), (4L, 3L), (4L, 2L), (3L, 2L), (1L, 4L))
    val want = RefGraph.Ref(pairs).paths(1L, 2L, 4)
    for (cut <- 1 to 3)
      assert(pathSet(idxJoin(pairs, HcQuery(1L, 2L, 4), cut)) == want, s"cut=$cut")
  }

  test("no results when graph is disconnected") {
    val pairs = Seq((1L, 3L), (4L, 2L))
    val r = idxJoin(pairs, HcQuery(1L, 2L, 4), 2)
    assert(r.results == 0)
  }

  test("invalid cut positions are rejected") {
    intercept[IllegalArgumentException](idxJoin(TestGraphs.layered, HcQuery(1L, 2L, 4), 0))
    intercept[IllegalArgumentException](idxJoin(TestGraphs.layered, HcQuery(1L, 2L, 4), 4))
  }

  test("peakPartialCells accounts for both halves") {
    val r = idxJoin(TestGraphs.layered, HcQuery(1L, 2L, 4), 2)
    assert(r.peakPartialCells > 0)
  }

  test("join result matches DFS result on the same index") {
    val q = HcQuery(1L, 2L, 5)
    val pairs = TestGraphs.randomCases(1, n = 10, e = 28).head._2
    val g = driverIndex(pairs, q).local
    val dfs = LeftDeepEnum.search(g, q, cfg)
    for (cut <- 1 until q.k)
      assert(pathSet(JoinEnum.search(g, q, cut, cfg)) == pathSet(dfs), s"cut=$cut")
  }

  for ((name, pairs, k) <- Seq(("figure1", TestGraphs.figure1, 4),
                               ("random-1", TestGraphs.randomCases(1).head._2, 5))) {
    test(s"the DataFrame entry points equal the search on the collected index ($name)") {
      val q = HcQuery(1L, 2L, k)
      val idx = LightIndex.build(spark, edgeDf(pairs), q)
      val rel = LeftDeepEnum.indexRelation(idx)
      def same(a: EnumResult, b: EnumResult): Boolean =
        a.results == b.results && a.perLevel == b.perLevel && a.paths == b.paths
      assert(same(LeftDeepEnum.run(spark, rel, q, cfg), LeftDeepEnum.search(idx.local, q, cfg)))
      for (cut <- 1 until k)
        assert(same(JoinEnum.run(spark, rel, q, cut, cfg), JoinEnum.search(idx.local, q, cut, cfg)),
          s"cut=$cut")
    }
  }

  for ((name, pairs) <- TestGraphs.randomCases(6, n = 11, e = 26)) {
    test(s"IDX-JOIN equals reference on $name (all cuts, k=4)") {
      val want = RefGraph.Ref(pairs).paths(1L, 2L, 4)
      for (cut <- 1 to 3)
        assert(pathSet(idxJoin(pairs, HcQuery(1L, 2L, 4), cut)) == want, s"cut=$cut")
    }
  }
}
