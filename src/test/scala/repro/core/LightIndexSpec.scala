package repro.core

import repro.{RefGraph, ReproSpec, TestGraphs}

class LightIndexSpec extends ReproSpec {

  private val q = HcQuery(1L, 2L, 4)

  /** The vertex table of `idx`: `v -> (ds, dt)` for each vertex of X. */
  private def dist(idx: LightIndex[_]): Map[Long, (Int, Int)] =
    idx.local.ids.indices.map(v => idx.local.ids(v) -> (idx.ds(v), idx.dt(v))).toMap

  /** One row `(src, dst, srcDs, srcDt, dstDs, dstDt)` per index edge. */
  private def edges(idx: LightIndex[_]): Seq[(Long, Long, Int, Int, Int, Int)] = {
    val g = idx.local
    for (u <- g.ids.indices; e <- g.first(u) until g.end(u); v = g.dst(e))
      yield (g.ids(u), g.ids(v), idx.ds(u), idx.dt(u), idx.ds(v), idx.dt(v))
  }

  /** Builds the index of `q` on `pairs`, on Spark and by the driver finish
    * alone over the whole edge list, and asserts that each has the
    * reference's edges (with all four distances) and vertex table. */
  private def assertReference(pairs: Seq[(Long, Long)], q: HcQuery): LightIndex[Unit] = {
    val ref = RefGraph.Ref(pairs)
    val dS = ref.ds(q.s, q.t, q.k); val dT = ref.dt(q.s, q.t, q.k)
    val x = dS.keySet.intersect(dT.keySet)
      .collect { case v if dS(v) + dT(v) <= q.k => v -> (dS(v), dT(v)) }.toMap
    val want = ref.indexEdges(q.s, q.t, q.k)
      .map { case (u, v) => (u, v, dS(u), dT(u), dS(v), dT(v)) }.toSet
    val idx = LightIndex.build(spark, edgeDf(pairs), q)
    for ((how, i) <- Seq("build" -> idx, "fromCandidates" -> driverIndex(pairs, q))) {
      assert(dist(i) == x, how)
      val got = edges(i)
      assert(got.length == i.edgeCount && got.toSet == want, how)
    }
    idx
  }

  test("index on figure1 matches reference index edges") {
    val idx = LightIndex.build(spark, edgeDf(TestGraphs.figure1), q)
    val got = edges(idx).map(r => (r._1, r._2)).toSet
    val want = RefGraph.Ref(TestGraphs.figure1).indexEdges(1L, 2L, 4).toSet
    assert(got == want)
  }

  test("index drops vertices outside every result") {
    // vertex 9 (edge into s) and dead-end 7,8 cannot appear in any result
    val idx = LightIndex.build(spark, edgeDf(TestGraphs.figure1), q)
    val verts = edges(idx).flatMap(r => Seq(r._1, r._2)).toSet
    assert(!verts.contains(9L))
    assert(!verts.contains(7L))
    assert(!verts.contains(8L))
  }

  test("every index edge satisfies the Alg. 3 conditions") {
    val ref = RefGraph.Ref(TestGraphs.figure1)
    val dS = ref.ds(1L, 2L, 4); val dT = ref.dt(1L, 2L, 4)
    val idx = LightIndex.build(spark, edgeDf(TestGraphs.figure1), q)
    edges(idx).foreach { case (src, dst, srcDs, srcDt, dstDs, dstDt) =>
      assert(dS(src) == srcDs && dT(src) == srcDt, s"distances wrong for $src")
      assert(dS(dst) == dstDs && dT(dst) == dstDt, s"distances wrong for $dst")
      assert(srcDs + srcDt <= q.k && dstDs + dstDt <= q.k && srcDs + dstDt + 1 <= q.k)
      assert(src != q.t)
    }
    // The vertex table is X = {v : ds + dt <= k}, so C_0 = {s} and t is
    // in C_k (Prop. 4.3).
    val wantVerts = dS.keySet.intersect(dT.keySet)
      .collect { case v if dS(v) + dT(v) <= q.k => (v, dS(v), dT(v)) }
    assert(dist(idx).map { case (v, (ds, dt)) => (v, ds, dt) }.toSet == wantVerts)
  }

  test("index never has more edges than the graph") {
    val idx = LightIndex.build(spark, edgeDf(TestGraphs.figure1), q)
    assert(idx.edgeCount <= TestGraphs.figure1.size)
  }

  test("memoryBytes counts edge and vertex cells") {
    val idx = LightIndex.build(spark, edgeDf(TestGraphs.layered), HcQuery(1L, 2L, 4))
    assert(idx.memoryBytes == idx.edgeCount * 8 + idx.vertexCount * 20 + 4)
  }

  /** The searches from s and to t of the index build meet in the middle:
    * the reference distances within ⌊(k − 1)/2⌋ hops. */
  private def nearDistances(pairs: Seq[(Long, Long)], q: HcQuery): (Map[Long, Int], Map[Long, Int]) = {
    val (ref, j) = (RefGraph.Ref(pairs), (q.k - 1) / 2)
    (ref.bfs(q.s, j, noExpand = Set(q.t)), ref.bfs(q.t, j, noExpand = Set(q.s), reverse = true))
  }

  // k = 2..6 meets at radius 0, 1 and 2.
  for ((name, pairs) <- TestGraphs.randomCases(5) ++ Seq("layered" -> TestGraphs.layered,
         "cyclic" -> TestGraphs.cyclic, "figure1" -> TestGraphs.figure1)) {
    test(s"index matches reference on $name") {
      for (k <- 2 to 6) assertReference(pairs, HcQuery(1L, 2L, k))
    }
  }

  test("the middle vertex of the only path is reached by neither search, k = 4 and 6") {
    // 1 -> 3 -> ... -> 2 with k edges, a dead branch off s and an edge into s
    for (k <- Seq(4, 6)) {
      val path = 1L +: (3L until k + 2L) :+ 2L
      val pairs = path.zip(path.tail) ++ Seq((1L, 20L), (20L, 21L), (3L, 1L))
      val q = HcQuery(1L, 2L, k)
      val mid = path(k / 2)
      val (nearS, nearT) = nearDistances(pairs, q)
      assert(!nearS.contains(mid) && !nearT.contains(mid))
      val idx = assertReference(pairs, q)
      assert(dist(idx)(mid) == (k / 2, k / 2) && idx.edgeCount == k)
    }
  }

  test("candidate edges outside the index are filtered out") {
    // 1 -> 3 -> 2 is the only path within k = 4; 4 has ds = 2 and dt = 3.
    // The edge (3, 4) passes the candidate test (1 + 1 + 2 <= 4), since the
    // search to t does not reach 4 within one hop.
    val pairs = Seq((1L, 3L), (3L, 2L), (3L, 4L), (4L, 5L), (5L, 6L), (6L, 2L))
    val q = HcQuery(1L, 2L, 4)
    val (nearS, nearT) = nearDistances(pairs, q)
    val j = (q.k - 1) / 2
    val candidates = pairs.filter { case (u, v) =>
      u != q.t && v != q.s && nearS.getOrElse(u, j + 1) + 1 + nearT.getOrElse(v, j + 1) <= q.k
    }
    assert(candidates.contains((3L, 4L)))
    val idx = assertReference(pairs, q)
    assert(idx.edgeCount == 2 && idx.edgeCount < candidates.size && !dist(idx).contains(4L))
  }

  test("the only path has exactly k edges, so ds(t) = dt(s) = k") {
    // 1 -> 3 -> 4 -> 5 -> 2, a dead branch 1 -> 6 -> 7 -> 8 and a back edge
    val pairs = Seq((1L, 3L), (3L, 4L), (4L, 5L), (5L, 2L), (1L, 6L), (6L, 7L), (7L, 8L), (5L, 3L))
    val idx = assertReference(pairs, q)
    assert(dist(idx)(2L) == (4, 0) && dist(idx)(1L) == (0, 4))
  }

  test("a direct s-t edge with k = 2") {
    assertReference(Seq((1L, 2L), (1L, 3L), (3L, 2L), (3L, 4L), (4L, 2L), (2L, 1L)),
      HcQuery(1L, 2L, 2))
  }

  test("s or t missing from the graph, and t unreachable, give an empty index") {
    for (pairs <- Seq(Seq((3L, 2L), (4L, 3L)), Seq((1L, 3L), (3L, 4L)),
                      Seq((1L, 3L), (3L, 4L), (2L, 5L), (5L, 1L)))) {
      val idx = assertReference(pairs, q)
      assert(idx.edgeCount == 0 && idx.vertexCount == 0)
    }
  }

  test("self-loops and duplicate edges") {
    for (k <- 2 to 4) assertReference(TestGraphs.selfLoops, HcQuery(1L, 2L, k))
  }

  /** The driver finish allocated 118 bytes per candidate edge here with
    * a k-hop search that read every edge at each hop, and 53 with one
    * search over the edges numbered densely (4 cores). */
  test("the driver finish allocates under 80 bytes per candidate edge on the calling thread") {
    // Every edge of a seeded random graph is a candidate.
    val pairs = RefGraph.random(300, 2000, seed = 16) ++ Seq((1L, 3L), (4L, 2L))
    val (src, dst, attr) = (pairs.map(_._1).toArray, pairs.map(_._2).toArray, Array.fill(pairs.size)(()))
    val bytes = allocated(LightIndex.fromCandidates(src, dst, attr, HcQuery(1L, 2L, 6)), warm = 20)
    assert(bytes <= 80L * src.length, s"$bytes bytes for ${src.length} candidate edges")
  }
}
