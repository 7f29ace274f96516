package repro.core

import org.apache.spark.sql.functions._
import repro.{RefGraph, ReproSpec, TestGraphs}

class ExtensionsSpec extends ReproSpec {

  // Weighted/labeled diamond: s=1, t=2 via 3 (w=1, lbl=1) or via 4 (w=5, lbl=2).
  private val wPairs = Seq(
    (1L, 3L, 1.0, 1L), (3L, 2L, 1.0, 1L),
    (1L, 4L, 5.0, 2L), (4L, 2L, 5.0, 2L),
    (3L, 4L, 1.0, 1L))
  private def weighted = {
    import spark.implicits._
    wPairs.map(e => (e._1, e._2, e._3)).toDF("src", "dst", "w")
  }
  private def labeled = {
    import spark.implicits._
    wPairs.map(e => (e._1, e._2, e._4)).toDF("src", "dst", "lbl")
  }

  private def unitWeights(pairs: Seq[(Long, Long)]) = {
    import spark.implicits._
    pairs.map { case (a, b) => (a, b, 1.0) }.toDF("src", "dst", "w")
  }
  private def oneLabel(pairs: Seq[(Long, Long)]) = {
    import spark.implicits._
    pairs.map { case (a, b) => (a, b, 1L) }.toDF("src", "dst", "lbl")
  }

  test("predicate constraint filters edges before index build") {
    val q = HcQuery(1L, 2L, 4)
    val r = Extensions.withPredicate(weighted, col("w") <= 1.0, q,
      EnumConfig(timeBudgetMs = 300000L, collectPaths = true))
    // only w<=1 edges: 1-3, 3-2, 3-4 remain; single path 1,3,2
    assert(pathSet(r.enum) == Set(List(1L, 3L, 2L)))
  }

  test("predicate that keeps everything changes nothing") {
    val q = HcQuery(1L, 2L, 4)
    val r = Extensions.withPredicate(weighted, lit(true), q,
      EnumConfig(timeBudgetMs = 300000L, collectPaths = true))
    assert(pathSet(r.enum) ==
      RefGraph.Ref(wPairs.map(e => (e._1, e._2))).paths(1L, 2L, 4))
  }

  test("accumulative sum constraint keeps only low-risk paths") {
    val q = HcQuery(1L, 2L, 4)
    val (r, withAcc) = Extensions.accumulative(weighted, q,
      init = 0.0, op = _ + _, accepts = _ <= 3.0,
      cfg = EnumConfig(timeBudgetMs = 300000L, collectPaths = true))
    assert(withAcc.map(_._1).toSet == Set(Seq(1L, 3L, 2L))) // sum 2.0
    assert(r.enum.results == 1)
  }

  test("accumulative values are computed correctly per path") {
    val q = HcQuery(1L, 2L, 4)
    val (_, withAcc) = Extensions.accumulative(weighted, q,
      init = 0.0, op = _ + _, accepts = _ >= 0.0,
      cfg = EnumConfig(timeBudgetMs = 300000L, collectPaths = true))
    val weights = wPairs.map(e => (e._1, e._2) -> e._3).toMap
    for ((p, acc) <- withAcc) {
      val want = p.sliding(2).map(x => weights((x(0), x(1)))).sum
      assert(math.abs(acc - want) < 1e-9, s"path $p")
    }
  }

  test("parallel edges with different weights are distinct paths and distinct index slots") {
    import spark.implicits._
    val multi = Seq((1L, 3L, 1.0), (1L, 3L, 2.0), (1L, 3L, 2.0), (3L, 2L, 1.0)).toDF("src", "dst", "w")
    val (r, got) = Extensions.accumulative(multi, HcQuery(1L, 2L, 4),
      init = 0.0, op = _ + _, accepts = _ => true, cfg = EnumConfig(timeBudgetMs = 300000L))
    assert(got.sortBy(_._2) == Seq((Seq(1L, 3L, 2L), 2.0), (Seq(1L, 3L, 2L), 3.0)))
    assert(r.enum.results == 2)
    // One slot per distinct (src, dst, w): the duplicate (1, 3, 2.0) collapses.
    assert(r.indexEdges == 3)
  }

  test("monotone prune does not change the result set") {
    val q = HcQuery(1L, 2L, 4)
    val (_, a) = Extensions.accumulative(weighted, q,
      init = 0.0, op = _ + _, accepts = _ <= 3.0,
      cfg = EnumConfig(timeBudgetMs = 300000L, collectPaths = true))
    val (_, b) = Extensions.accumulative(weighted, q,
      init = 0.0, op = _ + _, accepts = _ <= 3.0,
      prune = Some(_ <= 3.0), // weights nonnegative: sums only grow
      cfg = EnumConfig(timeBudgetMs = 300000L, collectPaths = true))
    assert(a.toSet == b.toSet)
  }

  test("automaton constraint: paths must start with label 1") {
    import spark.implicits._
    // DFA: state 0 --lbl1--> 1 (accepting); state 1 loops on any label.
    val dfa = Seq((0L, 1L, 1L), (1L, 1L, 1L), (1L, 2L, 1L)).toDF("state", "lbl", "next")
    val q = HcQuery(1L, 2L, 4)
    val (_, got) = Extensions.automaton(labeled, q, dfa,
      startState = 0L, acceptStates = Set(1L), EnumConfig(timeBudgetMs = 300000L, collectPaths = true))
    val all = RefGraph.Ref(wPairs.map(e => (e._1, e._2))).paths(1L, 2L, 4)
    val lbl = wPairs.map(e => (e._1, e._2) -> e._4).toMap
    val want = all.filter(p => lbl((p(0), p(1))) == 1L).map(_.toSeq)
    assert(got.map(_._1).toSet == want.toSet)
  }

  test("automaton with no accepting run yields nothing") {
    import spark.implicits._
    // only label-2 transitions exist from the start state
    val dfa = Seq((0L, 2L, 1L), (1L, 2L, 1L)).toDF("state", "lbl", "next")
    val q = HcQuery(1L, 2L, 4)
    val (_, got) = Extensions.automaton(labeled, q, dfa,
      startState = 0L, acceptStates = Set(1L), EnumConfig(timeBudgetMs = 300000L, collectPaths = true))
    // 1->4 has lbl 2, then 4->2 lbl 2: path (1,4,2) qualifies
    assert(got.map(_._1).toSet == Set(Seq(1L, 4L, 2L)))
  }

  test("accumulative run honours the row cap and the time budget") {
    for (cfg <- Seq(EnumConfig(timeBudgetMs = 300000L, maxLevelRows = 1),
                    EnumConfig(timeBudgetMs = 0L))) {
      val (r, _) = Extensions.accumulative(unitWeights(TestGraphs.layered),
        HcQuery(1L, 2L, 4), init = 0.0, op = _ + _, accepts = _ => true, cfg = cfg)
      assert(r.enum.timedOut, s"not marked timed out under $cfg")
    }
  }

  // Accept-all constraints must not change the result set; random graphs
  // have cycles on s-t walks, so this exercises the simple-path check.
  for ((name, pairs) <- TestGraphs.randomCases(5)) {
    val q = HcQuery(1L, 2L, 4)
    val cfg = EnumConfig(timeBudgetMs = 300000L) // paths returned without collectPaths
    lazy val want = RefGraph.Ref(pairs).paths(1L, 2L, 4)

    test(s"accept-all accumulative equals reference on $name") {
      val (r, got) = Extensions.accumulative(unitWeights(pairs), q,
        init = 0.0, op = _ + _, accepts = _ => true, cfg = cfg)
      assert(got.size == want.size && got.map(_._1.toList).toSet == want)
      for ((p, acc) <- got) assert(acc == p.size - 1, s"path $p")
      assert(r.enum.results == want.size)
    }

    test(s"one-state accept-all automaton equals reference on $name") {
      import spark.implicits._
      val dfa = Seq((0L, 1L, 0L)).toDF("state", "lbl", "next")
      val (r, got) = Extensions.automaton(oneLabel(pairs), q, dfa,
        startState = 0L, acceptStates = Set(0L), cfg)
      assert(got.size == want.size && got.map(_._1.toList).toSet == want)
      assert(got.forall(_._2 == 0L))
      assert(r.enum.results == want.size)
    }
  }
}
