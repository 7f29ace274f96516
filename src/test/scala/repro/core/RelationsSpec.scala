package repro.core

import repro.{RefGraph, ReproSpec, TestGraphs}

class RelationsSpec extends ReproSpec {

  private def evalPaths(pairs: Seq[(Long, Long)], q: HcQuery,
                        reduce: Boolean): Set[List[Long]] = {
    val rels0 = Relations.build(pairs, q)
    val rels = if (reduce) Relations.fullReduce(rels0) else rels0
    Relations.evaluate(rels, q)
  }

  test("Theorem 3.1: evaluating Q yields exactly P(s,t,k,G) — figure1") {
    val q = HcQuery(1L, 2L, 4)
    assert(evalPaths(TestGraphs.figure1, q, reduce = false)
      == RefGraph.Ref(TestGraphs.figure1).paths(1L, 2L, 4))
  }

  test("Theorem 3.1 holds on the cyclic graph (walks eliminated)") {
    val q = HcQuery(1L, 2L, 4)
    assert(evalPaths(TestGraphs.cyclic, q, reduce = false) == Set(List(1L, 3L, 2L)))
  }

  test("full reducer preserves the result set") {
    val q = HcQuery(1L, 2L, 4)
    assert(evalPaths(TestGraphs.figure1, q, reduce = true)
      == evalPaths(TestGraphs.figure1, q, reduce = false))
  }

  test("full reducer only removes tuples") {
    val q = HcQuery(1L, 2L, 4)
    val rels = Relations.build(TestGraphs.figure1, q)
    val red = Relations.fullReduce(rels)
    for (((before, after), i) <- rels.zip(red).zipWithIndex) {
      assert(after.subsetOf(before),
        s"R_${i + 1}: extra=${after.diff(before)} before=$before after=$after")
    }
  }

  test("R_1 contains only edges out of s; R_k only edges into t plus (t,t)") {
    val q = HcQuery(1L, 2L, 4)
    val rels = Relations.build(TestGraphs.figure1, q)
    assert(rels.head.forall(_._1 == 1L))
    assert(rels.last.forall(_._2 == 2L))
    assert(rels.last.exists(r => r._1 == 2L && r._2 == 2L))
  }

  test("interior relations exclude s entirely and t as source") {
    val q = HcQuery(1L, 2L, 4)
    val rels = Relations.build(TestGraphs.figure1, q)
    for (r <- rels.slice(1, q.k - 1); (src, dst) <- r) {
      assert(src != 1L && dst != 1L)
      if (src == 2L) assert(dst == 2L) // only (t,t)
    }
  }

  test("k=2 builds exactly two relations") {
    val rels = Relations.build(TestGraphs.figure1, HcQuery(1L, 2L, 2))
    assert(rels.size == 2)
  }

  test("Prop 4.2 flavor: reduced relations lose nothing the index keeps") {
    // Index pruning power is competitive with the full reducer (Appendix B):
    // enumeration over either gives the same paths.
    val q = HcQuery(1L, 2L, 4)
    val viaReducer = evalPaths(TestGraphs.cyclic, q, reduce = true)
    val idx = driverIndex(TestGraphs.cyclic, q)
    val viaIndex = pathSet(LeftDeepEnum.search(idx.local, q,
      EnumConfig(timeBudgetMs = 300000L, collectPaths = true)))
    assert(viaReducer == viaIndex)
  }

  for ((name, pairs) <- TestGraphs.randomCases(4)) {
    test(s"Theorem 3.1 with reducer equals reference on $name") {
      val q = HcQuery(1L, 2L, 4)
      assert(evalPaths(pairs, q, reduce = true) == RefGraph.Ref(pairs).paths(1L, 2L, 4))
    }
  }
}
