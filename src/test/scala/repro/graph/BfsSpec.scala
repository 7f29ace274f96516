package repro.graph

import repro.{RefGraph, ReproSpec, TestGraphs}

class BfsSpec extends ReproSpec {

  test("line graph distances") {
    val edges = edgeDf(Seq((1L, 2L), (2L, 3L), (3L, 4L)))
    val d = Bfs.distanceMap(edges, 1L, 8)
    assert(d == Map(1L -> 0, 2L -> 1, 3L -> 2, 4L -> 3))
  }

  test("maxHops bounds the search") {
    val edges = edgeDf(Seq((1L, 2L), (2L, 3L), (3L, 4L)))
    val d = Bfs.distanceMap(edges, 1L, 2)
    assert(d == Map(1L -> 0, 2L -> 1, 3L -> 2))
  }

  test("cycle distances") {
    val edges = edgeDf(Seq((1L, 2L), (2L, 3L), (3L, 1L)))
    val d = Bfs.distanceMap(edges, 1L, 5)
    assert(d == Map(1L -> 0, 2L -> 1, 3L -> 2))
  }

  test("unreachable vertices are absent") {
    val edges = edgeDf(Seq((1L, 2L), (3L, 4L)))
    val d = Bfs.distanceMap(edges, 1L, 5)
    assert(d == Map(1L -> 0, 2L -> 1))
  }

  test("source with no out-edges") {
    val edges = edgeDf(Seq((2L, 1L)))
    val d = Bfs.distanceMap(edges, 1L, 5)
    assert(d == Map(1L -> 0))
  }

  test("noExpand vertex is reached but not expanded through") {
    // 1 -> 2 -> 3; 2 excluded as interior: 3 unreachable, 2 still has dist 1.
    val edges = edgeDf(Seq((1L, 2L), (2L, 3L)))
    val d = Bfs.distanceMap(edges, 1L, 5, noExpand = Set(2L))
    assert(d == Map(1L -> 0, 2L -> 1))
  }

  test("noExpand forces the detour distance") {
    // shortest 1->4 via 2 (len 2), detour via 3,5 (len 3); excluding 2 gives 3.
    val edges = edgeDf(Seq((1L, 2L), (2L, 4L), (1L, 3L), (3L, 5L), (5L, 4L)))
    val d = Bfs.distanceMap(edges, 1L, 5, noExpand = Set(2L))
    assert(d(4L) == 3)
  }

  test("reverse graph gives distance-to-target") {
    val edges = edgeDf(Seq((1L, 2L), (2L, 3L)))
    val d = Bfs.distanceMap(GraphGen.reverse(edges), 3L, 5)
    assert(d == Map(3L -> 0, 2L -> 1, 1L -> 2))
  }

  for ((name, pairs) <- TestGraphs.randomCases(6, n = 14, e = 35)) {
    test(s"matches reference BFS on $name") {
      val ref = RefGraph.Ref(pairs)
      val got = Bfs.distanceMap(edgeDf(pairs), 1L, 6)
      assert(got == ref.bfs(1L, 6))
    }
    test(s"matches reference BFS with noExpand on $name") {
      val ref = RefGraph.Ref(pairs)
      val got = Bfs.distanceMap(edgeDf(pairs), 1L, 6, noExpand = Set(2L))
      assert(got == ref.bfs(1L, 6, noExpand = Set(2L)))
    }
    test(s"matches reference reverse BFS on $name") {
      val ref = RefGraph.Ref(pairs)
      val got = Bfs.distanceMap(GraphGen.reverse(edgeDf(pairs)), 2L, 6, noExpand = Set(1L))
      assert(got == ref.bfs(2L, 6, noExpand = Set(1L), reverse = true))
    }
  }

  for ((name, pairs) <- TestGraphs.randomCases(5); hops <- Seq(2, 5)) {
    test(s"fused BFS matches reference ds and dt within $hops hops on $name") {
      val ref = RefGraph.Ref(pairs)
      val edges = Bfs.sparkHop(Bfs.pairs(edgeDf(pairs)))
      val (ds, dt) = Bfs.search(edges, Some(1L), Some(2L), hops, sStop = Set(2L), tStop = Set(1L))
      assert(ds == ref.bfs(1L, hops, noExpand = Set(2L)))
      assert(dt == ref.bfs(2L, hops, noExpand = Set(1L), reverse = true))
      assert(Bfs.search(edges, None, Some(2L), hops) == (Map.empty, ref.bfs(2L, hops, reverse = true)))
    }
  }

  // Parallel edges, self-loops at s and t, and an edge into s.
  for ((name, pairs) <- TestGraphs.randomCases(5) ++ Seq("selfLoops" -> TestGraphs.selfLoops,
         "figure1" -> TestGraphs.figure1); hops <- Seq(2, 5)) {
    test(s"the driver hop gives the Spark hop's ds and dt within $hops hops on $name") {
      val hop = Bfs.sparkHop(Bfs.pairs(edgeDf(pairs)))
      val g = new Bfs.Local(pairs.map(_._1).toArray, pairs.map(_._2).toArray)
      // The reached vertices of `d` as a map; the Spark search also reaches
      // a root that no edge touches.
      def reached(root: Long, d: Array[Int]): Map[Long, Int] = {
        val m = g.ids.indices.collect { case v if d(v) >= 0 => g.ids(v) -> d(v) }.toMap
        if (g.vertex(root) >= 0) m else m + (root -> 0)
      }
      assert(Bfs.search(hop, Some(1L), Some(2L), hops, sStop = Set(2L), tStop = Set(1L)) ==
        (reached(1L, g.forward(1L, hops, stop = Some(2L))),
          reached(2L, g.backward(2L, hops, stop = Some(1L)))))
      assert(Bfs.search(hop, Some(1L), None, hops)._1 == reached(1L, g.forward(1L, hops)))
      assert(Bfs.search(hop, None, Some(2L), hops, tStop = Set(1L))._2 ==
        reached(2L, g.backward(2L, hops, stop = Some(1L))))
    }
  }
}
