package perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.{RefGraph, TestGraphs}

/** The counting reference against the program's pure-Scala path
  * enumerator, on the shared fixtures and on random graphs. */
class ReferenceSpec extends AnyFunSuite {

  private def graph(pairs: Seq[(Long, Long)]): Graph = {
    val sorted = pairs.distinct.sorted
    Graph(sorted.map(_._1.toInt).toArray, sorted.map(_._2.toInt).toArray,
      (pairs.map(_._1) ++ pairs.map(_._2)).max.toInt)
  }

  private def agree(name: String, pairs: Seq[(Long, Long)], s: Long, t: Long): Unit =
    for (k <- 2 to 6) {
      val expected = RefGraph.Ref(pairs).paths(s, t, k).size.toLong
      assert(Reference.count(graph(pairs), s.toInt, t.toInt, k, Long.MaxValue) == expected,
        s"$name q($s, $t, $k)")
    }

  test("matches RefGraph.paths on the TestGraphs fixtures") {
    agree("layered", TestGraphs.layered, 1, 2)
    agree("cyclic", TestGraphs.cyclic, 1, 2)
    agree("figure1", TestGraphs.figure1, 1, 2)
  }

  test("matches RefGraph.paths on random graphs") {
    for ((name, pairs) <- TestGraphs.randomCases(8, n = 14, e = 40)) agree(name, pairs, 1, 2)
    for (seed <- 1 to 20) {
      val pairs = RefGraph.random(12, 45, seed)
      val s = pairs.head._1
      agree(s"random seed $seed", pairs, s, pairs.map(_._2).filter(_ != s).last)
    }
  }

  test("stops at the limit") {
    val pairs = TestGraphs.layered
    assert(RefGraph.Ref(pairs).paths(1, 2, 4).size == 8)
    assert(Reference.count(graph(pairs), 1, 2, 4, limit = 5) == 5)
  }

  test("generated inputs depend only on the seed") {
    val spec = Workloads.ep
    val a = Inputs.graph(spec, 7)
    assert(a.checksum == Inputs.graph(spec, 7).checksum)
    assert(a.checksum != Inputs.graph(spec, 8).checksum)
    assert(a.edgeCount == spec.edges)
    assert(a.src.indices.forall(i => a.src(i) != a.dst(i)))
    assert(Inputs.endpoints(a, 10, 3) == Inputs.endpoints(a, 10, 3))
  }
}
