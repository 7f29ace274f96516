package repro.core

import repro.{RefGraph, ReproSpec, TestGraphs}

class LeftDeepEnumSpec extends ReproSpec {

  private def idxDfs(pairs: Seq[(Long, Long)], q: HcQuery): EnumResult =
    LeftDeepEnum.search(driverIndex(pairs, q).local, q,
      EnumConfig(timeBudgetMs = 300000L, collectPaths = true))

  test("layered DAG: all 8 length-4 paths found") {
    val r = idxDfs(TestGraphs.layered, HcQuery(1L, 2L, 4))
    assert(r.results == 8)
    assert(pathSet(r) == RefGraph.Ref(TestGraphs.layered).paths(1L, 2L, 4))
  }

  test("cyclic graph: only the single simple path is found (Example 5.2)") {
    val r = idxDfs(TestGraphs.cyclic, HcQuery(1L, 2L, 4))
    assert(pathSet(r) == Set(List(1L, 3L, 2L)))
  }

  test("figure1 graph: paths of mixed lengths") {
    val q = HcQuery(1L, 2L, 4)
    val r = idxDfs(TestGraphs.figure1, q)
    assert(pathSet(r) == RefGraph.Ref(TestGraphs.figure1).paths(1L, 2L, 4))
    assert(pathSet(r) == Set(List(1L, 3L, 2L), List(1L, 3L, 4L, 5L, 2L)))
  }

  test("perLevel counts paths by length") {
    val r = idxDfs(TestGraphs.figure1, HcQuery(1L, 2L, 4))
    // one path of length 2 (level 2), one of length 4 (level 4)
    assert(r.perLevel.zipWithIndex.collect { case (n, i) if n > 0 => (i + 1, n) }.toMap
      == Map(2 -> 1L, 4 -> 1L))
  }

  test("k below shortest path yields nothing") {
    val pairs = Seq((1L, 3L), (3L, 4L), (4L, 2L))
    val r = idxDfs(pairs, HcQuery(1L, 2L, 2))
    assert(r.results == 0)
  }

  test("direct edge s->t is a result at k=2") {
    val pairs = Seq((1L, 2L), (1L, 3L), (3L, 2L))
    val r = idxDfs(pairs, HcQuery(1L, 2L, 2))
    assert(pathSet(r) == Set(List(1L, 2L), List(1L, 3L, 2L)))
  }

  test("t is never an interior vertex") {
    // s->t->3->t would be a walk; only s->t is a path from s to t
    val pairs = Seq((1L, 2L), (2L, 3L), (3L, 2L))
    val r = idxDfs(pairs, HcQuery(1L, 2L, 4))
    assert(pathSet(r) == Set(List(1L, 2L)))
  }

  test("s is never revisited") {
    // s->3->s->... excluded; s->3->2 ok
    val pairs = Seq((1L, 3L), (3L, 1L), (3L, 2L))
    val r = idxDfs(pairs, HcQuery(1L, 2L, 4))
    assert(pathSet(r) == Set(List(1L, 3L, 2L)))
  }

  test("duplicate interior vertices are rejected") {
    val r = idxDfs(TestGraphs.cyclic, HcQuery(1L, 2L, 6))
    // walks 1,3,4,3,2 etc. exist, but only 1,3,2 is simple
    assert(pathSet(r) == Set(List(1L, 3L, 2L)))
  }

  test("timeout reports partial progress") {
    val q = HcQuery(1L, 2L, 4)
    val idx = driverIndex(TestGraphs.layered, q)
    assert(LeftDeepEnum.search(idx.local, q, EnumConfig(timeBudgetMs = 0)).timedOut)
  }

  test("row cap cuts a repeatable prefix of the results") {
    val q = HcQuery(1L, 2L, 4)
    val idx = driverIndex(TestGraphs.layered, q)
    val cfg = EnumConfig(timeBudgetMs = 300000L, collectPaths = true, maxLevelRows = 3)
    val r = LeftDeepEnum.search(idx.local, q, cfg)
    val want = RefGraph.Ref(TestGraphs.layered).paths(1L, 2L, 4)
    assert(r.results == 3 && r.timedOut)
    assert(pathSet(r).subsetOf(want))
    assert(LeftDeepEnum.search(idx.local, q, cfg).paths == r.paths)
    // The first 3 in DFS order: neighbours by dt, then id, which on this
    // DAG is the lexicographic order.
    assert(r.paths.get.map(_.toList) ==
      want.toList.sorted(Ordering.Implicits.seqOrdering[List, Long]).take(3))
  }

  test("responseMs set when run completes") {
    val r = idxDfs(TestGraphs.layered, HcQuery(1L, 2L, 4))
    assert(r.responseMs.isDefined)
    assert(r.responseMs.get <= r.elapsedMs + 1)
  }

  test("peakPartialCells tracks materialized partials") {
    val r = idxDfs(TestGraphs.layered, HcQuery(1L, 2L, 4))
    assert(r.peakPartialCells > 0)
  }

  for ((name, pairs) <- TestGraphs.randomCases(8)) {
    for (k <- Seq(3, 5)) {
      test(s"IDX-DFS equals reference on $name k=$k") {
        val r = idxDfs(pairs, HcQuery(1L, 2L, k))
        assert(pathSet(r) == RefGraph.Ref(pairs).paths(1L, 2L, k))
      }
    }
  }
}
