package repro.core

import repro.{RefGraph, ReproSpec, TestGraphs}

class EstimatorSpec extends ReproSpec {

  private def dp(pairs: Seq[(Long, Long)], q: HcQuery): DpEstimate =
    Estimator.full(spark, driverIndex(pairs, q))

  test("DP totals equal the padded walk count (layered)") {
    val q = HcQuery(1L, 2L, 4)
    val est = dp(TestGraphs.layered, q)
    val walks = RefGraph.Ref(TestGraphs.layered).walks(1L, 2L, 4).size
    assert(est.forward(q.k) == walks)
    assert(est.backward(0) == walks)
  }

  test("DP totals equal the padded walk count (cyclic: walks > paths)") {
    val q = HcQuery(1L, 2L, 4)
    val est = dp(TestGraphs.cyclic, q)
    val ref = RefGraph.Ref(TestGraphs.cyclic)
    assert(est.forward(q.k) == ref.walks(1L, 2L, 4).size)
    assert(ref.walks(1L, 2L, 4).size > ref.paths(1L, 2L, 4).size)
  }

  test("forward(0) = 1 and backward(k) = 1") {
    val est = dp(TestGraphs.figure1, HcQuery(1L, 2L, 4))
    assert(est.forward(0) == 1 && est.backward(4) == 1)
  }

  test("Spark DP matches the reference DP level-by-level") {
    for ((_, pairs) <- TestGraphs.randomCases(3)) {
      val q = HcQuery(1L, 2L, 5)
      val est = dp(pairs, q)
      val (fRef, bRef) = RefGraph.Ref(pairs).dp(1L, 2L, 5)
      assert(est.forward == fRef, "forward")
      assert(est.backward == bRef, "backward")
    }
  }

  test("forward(k) == backward(0) on random graphs") {
    for ((name, pairs) <- TestGraphs.randomCases(4, n = 13, e = 32)) {
      val est = dp(pairs, HcQuery(1L, 2L, 4))
      assert(est.forward(4) == est.backward(0), name)
    }
  }

  test("tDfs is the sum of forward level sums") {
    val est = dp(TestGraphs.layered, HcQuery(1L, 2L, 4))
    assert(est.tDfs == (1 to 4).map(est.forward).sum)
  }

  test("bestCut is interior and minimizes f(i)+b(i)") {
    val est = dp(TestGraphs.layered, HcQuery(1L, 2L, 4))
    val i = est.bestCut
    assert(i >= 1 && i < 4)
    val best = (1 until 4).map(j => est.forward(j) + est.backward(j)).min
    assert(est.forward(i) + est.backward(i) == best)
  }

  test("tJoin follows the Section 6.3 formula") {
    val est = dp(TestGraphs.layered, HcQuery(1L, 2L, 4))
    val i = est.bestCut
    assert(est.tJoin == est.forward(4) + (1 to i).map(est.forward).sum
      + (i to 4).map(est.backward).sum)
  }

  test("preliminary estimate is nonnegative and scales with density") {
    val q = HcQuery(1L, 2L, 4)
    val sparseIdx = driverIndex(TestGraphs.cyclic, q)
    val denseIdx = driverIndex(TestGraphs.layered, q)
    val sparse = Estimator.preliminary(spark, sparseIdx)
    val dense = Estimator.preliminary(spark, denseIdx)
    assert(sparse >= 0 && dense >= 0)
    assert(dense > sparse, s"layered ($dense) should dwarf cyclic ($sparse)")
  }

  test("preliminary estimate is exact on a layered DAG") {
    // On a DAG where every partial extends and gammas are uniform, Eq. 5 is
    // exact: level sizes 2, 4, 8, 8 -> 22 partials.
    val q = HcQuery(1L, 2L, 4)
    val idx = driverIndex(TestGraphs.layered, q)
    val est = Estimator.preliminary(spark, idx)
    val walks = RefGraph.Ref(TestGraphs.layered).walks(1L, 2L, 4)
    // Σ_i |M̃_i| for the layered DAG: prefixes of padded walks per level.
    val padded = walks.map(w => w ++ List.fill(q.k + 1 - w.size)(2L))
    val sums = (1 to q.k).map(i => padded.map(_.take(i + 1)).distinct.size).sum
    assert(math.abs(est - sums) / sums < 0.35, s"est=$est actual=$sums")
  }

  test("empty index estimates zero") {
    val q = HcQuery(1L, 2L, 3)
    val idx = driverIndex(Seq((1L, 5L), (6L, 2L)), q)
    assert(Estimator.preliminary(spark, idx) == 0.0)
  }

  test("DP forward levels equal distinct padded prefixes (layered)") {
    val q = HcQuery(1L, 2L, 4)
    val est = dp(TestGraphs.layered, q)
    val walks = RefGraph.Ref(TestGraphs.layered).walks(1L, 2L, 4)
    val padded = walks.map(w => w ++ List.fill(q.k + 1 - w.size)(2L))
    for (i <- 1 to q.k)
      assert(est.forward(i) == padded.map(_.take(i + 1)).distinct.size, s"level $i")
  }

  test("cost sums throw on Long overflow instead of wrapping") {
    val big = Long.MaxValue / 2 + 1
    val est = DpEstimate(Seq(1L, big, big, big), Seq(big, 1L, 1L, 1L), 0.0)
    assert(est.bestCut == 1)
    assertThrows[ArithmeticException](est.tDfs)
    assertThrows[ArithmeticException](est.tJoin)
    assert(DpEstimate(Seq(1L, 2L, 3L, 1L), Seq(9L, 4L, 2L, 1L), 0.0).tDfs == 6)
  }
}
