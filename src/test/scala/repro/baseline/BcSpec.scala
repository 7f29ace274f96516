package repro.baseline

import repro.{RefGraph, ReproSpec, TestGraphs}
import repro.core.{EnumConfig, HcQuery}

class BcSpec extends ReproSpec {

  private val cfg = EnumConfig(timeBudgetMs = 300000L, collectPaths = true)

  test("BC-DFS finds all paths on the layered DAG") {
    val want = RefGraph.Ref(TestGraphs.layered).paths(1L, 2L, 4)
    val r = BcDfs.run(spark, edgeDf(TestGraphs.layered), HcQuery(1L, 2L, 4), cfg)
    assert(pathSet(r.enum) == want)
    // Under a row cap of 3: the first 3 in DFS order (by dt, then id, which
    // is lexicographic here), flagged and repeatable.
    val capped = cfg.copy(maxLevelRows = 3)
    val c = BcDfs.run(spark, edgeDf(TestGraphs.layered), HcQuery(1L, 2L, 4), capped)
    assert(c.enum.results == 3 && c.enum.timedOut)
    assert(pathSet(c.enum).subsetOf(want))
    assert(BcDfs.run(spark, edgeDf(TestGraphs.layered), HcQuery(1L, 2L, 4), capped).enum.paths
      == c.enum.paths)
    assert(c.enum.paths.get.map(_.toList) ==
      want.toList.sorted(Ordering.Implicits.seqOrdering[List, Long]).take(3))
  }

  test("BC-DFS rejects walks on the cyclic graph") {
    val r = BcDfs.run(spark, edgeDf(TestGraphs.cyclic), HcQuery(1L, 2L, 4), cfg)
    assert(pathSet(r.enum) == Set(List(1L, 3L, 2L)))
  }

  test("BC-DFS B(v) check prunes by distance-to-t on the full graph") {
    // 5 is 3 hops from t; with k=3 any partial through 5 fails B-check
    val pairs = Seq((1L, 5L), (5L, 6L), (6L, 7L), (7L, 2L), (1L, 3L), (3L, 2L))
    val r = BcDfs.run(spark, edgeDf(pairs), HcQuery(1L, 2L, 3), cfg)
    assert(pathSet(r.enum) == Set(List(1L, 3L, 2L)))
  }

  test("BC-JOIN equals BC-DFS on figure1") {
    val q = HcQuery(1L, 2L, 4)
    val a = BcDfs.run(spark, edgeDf(TestGraphs.figure1), q, cfg)
    val b = BcJoin.run(edgeDf(TestGraphs.figure1), q, cfg)
    assert(pathSet(a.enum) == pathSet(b.enum))
  }

  test("BC-JOIN cuts at the middle position") {
    val r = BcJoin.run(edgeDf(TestGraphs.layered), HcQuery(1L, 2L, 5), cfg)
    assert(r.planInfo.cut.contains(3)) // ceil(5/2)
  }

  test("BC baselines expose no index metrics") {
    val r = BcDfs.run(spark, edgeDf(TestGraphs.layered), HcQuery(1L, 2L, 4), cfg)
    assert(r.indexEdges == -1)
  }

  test("every edge the BC-DFS search can read is in its relation with B = S(v, t | G)") {
    // At depth L the search reads (u, v) only if L + 1 + B(v) <= k, and
    // L >= ds(u); B is the BFS to t with no stop set.
    val graphs = TestGraphs.randomCases(9, n = 14, e = 40) ++
      TestGraphs.randomCases(9, n = 20, e = 90) ++ Seq("layered" -> TestGraphs.layered,
        "figure1" -> TestGraphs.figure1, "cyclic" -> TestGraphs.cyclic,
        "selfLoops" -> TestGraphs.selfLoops, "s missing" -> Seq((3L, 2L), (4L, 3L)),
        "t missing" -> Seq((1L, 3L), (3L, 4L)),
        "t unreachable" -> Seq((1L, 3L), (3L, 4L), (2L, 5L), (5L, 1L)),
        "a direct s-t edge" -> Seq((1L, 2L), (1L, 3L), (3L, 2L), (3L, 4L), (4L, 2L), (2L, 1L)))
    for ((name, pairs) <- graphs) {
      val (ref, edges) = (RefGraph.Ref(pairs), edgeDf(pairs))
      for (k <- 2 to 6) {
        val ds = ref.bfs(1L, k, noExpand = Set(2L))
        val b = ref.bfs(2L, k, reverse = true)
        val want = pairs.collect { case (u, v)
          if u != 2L && ds.contains(u) && b.contains(v) && ds(u) + 1 + b(v) <= k => (u, v, b(v))
        }.toSet
        val (g, _) = BcDfs.collected(edges, HcQuery(1L, 2L, k))
        val slots = for (u <- g.ids.indices; e <- g.first(u) until g.end(u))
          yield (g.ids(u), g.ids(g.dst(e)), g.dt(e))
        for ((u, v, d) <- slots)
          assert(b.get(v).exists(_ <= d), s"$name, k = $k: slot ($u, $v) has dt $d below B")
        def readable(s: Seq[(Long, Long, Int)]) =
          s.filter { case (u, _, d) => ds.get(u).exists(_ + 1 + d <= k) }.toSet
        assert(readable(slots) == want, s"$name, k = $k")
        // The driver finish over the whole edge list: the same readable
        // slots, each with the exact B.
        val (fu, fv, fd) = BcDfs.fromCandidates(pairs.map(_._1).toArray, pairs.map(_._2).toArray,
          HcQuery(1L, 2L, k))
        val finish = fu.indices.map(i => (fu(i), fv(i), fd(i)))
        assert(finish.forall { case (_, v, d) => b(v) == d }, s"$name, k = $k: finish B")
        assert(readable(finish) == readable(slots), s"$name, k = $k: finish")
      }
    }
  }

  for ((name, pairs) <- TestGraphs.randomCases(6, n = 12, e = 30)) {
    test(s"BC-DFS equals reference on $name k=4") {
      val r = BcDfs.run(spark, edgeDf(pairs), HcQuery(1L, 2L, 4), cfg)
      assert(pathSet(r.enum) == RefGraph.Ref(pairs).paths(1L, 2L, 4))
    }
    test(s"BC-JOIN equals reference on $name k=4") {
      val r = BcJoin.run(edgeDf(pairs), HcQuery(1L, 2L, 4), cfg)
      assert(pathSet(r.enum) == RefGraph.Ref(pairs).paths(1L, 2L, 4))
    }
  }
}
