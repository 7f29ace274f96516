package repro.graph

import org.apache.spark.sql.functions._
import repro.ReproSpec

class GraphGenSpec extends ReproSpec {

  test("powerLaw produces no self loops") {
    val g = GraphGen.powerLaw(spark, 100, 500, seed = 1)
    assert(g.where(col("src") === col("dst")).count() == 0)
  }

  test("powerLaw produces no duplicate edges") {
    val g = GraphGen.powerLaw(spark, 100, 500, seed = 1)
    assert(g.count() == g.distinct().count())
  }

  test("powerLaw vertex ids stay in range") {
    val g = GraphGen.powerLaw(spark, 50, 300, seed = 2)
    val mm = g.agg(min(least(col("src"), col("dst"))), max(greatest(col("src"), col("dst"))))
      .collect()(0)
    assert(mm.getLong(0) >= 1 && mm.getLong(1) <= 50)
  }

  test("powerLaw is deterministic in the seed") {
    val a = GraphGen.powerLaw(spark, 80, 400, seed = 3).collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val b = GraphGen.powerLaw(spark, 80, 400, seed = 3).collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(a == b)
  }

  test("powerLaw does not depend on the default parallelism") {
    val key = "spark.sql.leafNodeDefaultParallelism"
    val graphs = try {
      for (p <- Seq(1, 2, 4)) yield {
        spark.conf.set(key, p.toLong)
        GraphGen.powerLaw(spark, 750, 5080, alpha = 2.2, seed = 108).collect()
          .map(r => (r.getLong(0), r.getLong(1))).toSet
      }
    } finally spark.conf.unset(key)
    assert(graphs.distinct.size == 1)
  }

  test("different seeds differ") {
    val a = GraphGen.powerLaw(spark, 80, 400, seed = 3).collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val b = GraphGen.powerLaw(spark, 80, 400, seed = 4).collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(a != b)
  }

  test("powerLaw out-degree is skewed (hubs exist)") {
    val g = GraphGen.powerLaw(spark, 1000, 5000, alpha = 2.5, seed = 5)
    val degs = g.groupBy("src").count().orderBy(col("count").desc)
      .collect().map(_.getLong(1))
    val total = degs.sum.toDouble
    val top10 = degs.take(math.max(1, degs.length / 10)).sum.toDouble
    assert(top10 / total > 0.3, s"top-10% degree share ${top10 / total} not skewed")
  }

  test("reverse swaps the endpoints") {
    val g = edgeDf(Seq((1L, 2L), (3L, 4L)))
    val r = GraphGen.reverse(g).collect().map(x => (x.getLong(0), x.getLong(1))).toSet
    assert(r == Set((2L, 1L), (4L, 3L)))
  }

  test("fromPairs round-trips") {
    val pairs = Seq((5L, 6L), (6L, 7L))
    val got = edgeDf(pairs).collect().map(x => (x.getLong(0), x.getLong(1))).toSet
    assert(got == pairs.toSet)
  }
}
