package repro.bench

import repro.{RefGraph, ReproSpec}
import repro.graph.GraphGen

class QueryGenSpec extends ReproSpec {

  private lazy val edges = {
    val df = GraphGen.powerLaw(spark, 300, 2500, alpha = 1.3, seed = 31)
    df.cache(); df.count(); df
  }
  private lazy val pairs =
    edges.collect().map(r => (r.getLong(0), r.getLong(1))).toSeq

  test("topDegreeVertices returns ~10% of vertices, highest degree first") {
    val ref = RefGraph.Ref(pairs)
    val all = pairs.flatMap(p => Seq(p._1, p._2)).distinct
    val top = QueryGen.topDegreeVertices(edges)
    assert(top.size == math.max(1, all.size / 10))
    val deg = all.map(v => v -> (ref.out(v).size + ref.in(v).size)).toMap
    val minTop = top.map(deg).min
    val outside = all.filterNot(top.contains).map(deg)
    // every excluded vertex has degree <= the weakest included one (ties ok)
    assert(outside.forall(_ <= minTop))
  }

  test("queries come from the top-degree set with 1 <= dist(s,t) <= 3") {
    val qs = QueryGen.queries(edges, n = 5, seed = 7)
    val top = QueryGen.topDegreeVertices(edges).toSet
    val ref = RefGraph.Ref(pairs)
    assert(qs.size == 5)
    for ((s, t) <- qs) {
      assert(s != t)
      assert(top.contains(s) && top.contains(t))
      val d = ref.bfs(s, 3)
      assert(d.get(t).exists(x => x >= 1 && x <= 3), s"dist($s,$t) not in [1,3]")
    }
  }

  test("query generation is deterministic in the seed") {
    val a = QueryGen.queries(edges, n = 4, seed = 9)
    val b = QueryGen.queries(edges, n = 4, seed = 9)
    assert(a == b)
  }

  test("every query has at least one result (dist <= 3 <= k)") {
    val qs = QueryGen.queries(edges, n = 3, seed = 11)
    val ref = RefGraph.Ref(pairs)
    for ((s, t) <- qs) assert(ref.paths(s, t, 6).nonEmpty)
  }

  test("graph suite covers the paper's 15 datasets") {
    assert(GraphSuite.specs.size == 15)
    assert(GraphSuite.specs.map(_.name).distinct.size == 15)
    assert(GraphSuite.specs.count(_.inTable3) == 14) // tm excluded, as in Table 3
  }
}
