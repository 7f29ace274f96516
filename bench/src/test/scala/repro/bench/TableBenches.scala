package repro.bench

import repro.ReproSpec

/** Benchmark suites, one per evaluation table. Each prints the paper-style
  * table (`sbt "bench/test"` prints them all) and asserts
  * the structural sanity of the measurements. Numbers land next to the
  * paper's in EXPERIMENTS.md.
  */
class Table2Bench extends ReproSpec {
  test("Table 2: dataset properties") {
    val out = BenchTables.table2(spark)
    println(out)
    assert(out.linesIterator.size >= 17) // header + 15 graphs
    for (s <- GraphSuite.specs) assert(out.contains(s.name))
  }
}

class Table3Bench extends ReproSpec {
  test("Table 3: overall comparison of the five algorithms at k=6") {
    val rows = BenchTables.table3Rows(spark)
    println(BenchTables.formatTable3(rows))
    assert(rows.size == 14)
    for (r <- rows; a <- Runner.algos) {
      assert(!r.qt(a).isNaN, s"${r.graph}/$a query time")
      assert(r.tp(a) >= 0.0)
    }
    // Correctness across competitors: whenever no algorithm was killed on a
    // query, all five must report the same number of paths.
    for (r <- rows) assert(r.resultsConsistent, s"${r.graph}: algorithms disagree")
    // Shape checks that transfer to this substrate (see EXPERIMENTS.md —
    // the paper's per-query-time ordering does NOT transfer: per-job
    // dataflow overhead dominates easy queries and the row-cap kill
    // equalizes truncated ones):
    // (1) kills concentrate on the search-space-heavy graphs, as in the
    //     paper's starred rows — the dense analogs must be among them;
    val heavy = rows.filter(_.anyTimeout).map(_.graph).toSet
    assert(Set("da", "ye").subsetOf(heavy),
      s"dense graphs not among heavy/killed rows: $heavy")
    // (2) under an equal kill, the index methods stream results at the
    //     same order of magnitude as the BC baseline (sanity: the index
    //     never loses results or throughput catastrophically).
    for (r <- rows if r.anyTimeout)
      assert(math.max(r.tp("IDX-DFS"), r.tp("PathEnum")) * 10 >= r.tp("BC-DFS"),
        s"${r.graph}: index throughput collapsed vs BC-DFS")
  }
}

class Table4Bench extends ReproSpec {
  test("Table 4: query time distribution on ep and gg") {
    val out = BenchTables.table4(spark)
    println(out)
    assert((3 to 8).forall(k => out.linesIterator.exists(_.startsWith(k.toString))))
  }
}

class Table5Bench extends ReproSpec {
  test("Table 5: short vs long queries on ep with k=8") {
    val out = BenchTables.table5(spark)
    println(out)
    assert(out.contains("BC-DFS") && out.contains("IDX-DFS"))
  }
}

class Table6Bench extends ReproSpec {
  test("Table 6: average and maximum result counts on ep and gg") {
    val out = BenchTables.table6(spark)
    println(out)
    assert(out.contains("ep") && out.contains("gg"))
    // result counts must be monotone-ish in k on gg (no budget cap there)
    val ms = BenchTables.sweep(spark).filter(m => m.algo == "IDX-DFS" && m.graph == "gg")
    val avgByK = (3 to 8).map(k => ms.filter(_.q.k == k).map(_.result.enum.results).sum)
    assert(avgByK.head <= avgByK.last, s"gg results did not grow with k: $avgByK")
  }
}

class Table7Bench extends ReproSpec {
  test("Table 7: memory of index and IDX-JOIN partial results") {
    val out = BenchTables.table7(spark)
    println(out)
    assert(out.contains("Index") && out.contains("Partial Results"))
    val ms = BenchTables.sweep(spark).filter(_.algo == "IDX-JOIN")
    assert(ms.forall(_.result.indexBytes > 0))
  }
}
