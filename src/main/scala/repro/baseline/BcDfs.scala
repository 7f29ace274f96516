package repro.baseline

import org.apache.spark.TaskContext
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.core.{Adjacency, EnumConfig, HcQuery, LeftDeepEnum, PathEnumResult, PlanInfo}
import repro.graph.Bfs
import scala.collection.mutable

/** BC-DFS baseline — the state-of-the-art polynomial-delay competitor [29]
  * on the same search routine as IDX-DFS.
  *
  * Algorithm 1: search over the **full** edge list; before the search, one
  * BFS to `t` initializes `B(v) = S(v, t | G)` on Spark, one job collects
  * the relation, and each step only checks
  * `L(M) + 1 + B(v') <= k` plus the duplicate-vertex test. (The
  * dynamic barrier maintenance of [29] prunes sub-trees discovered empty;
  * the paper's own measurements — Figure 6 — show it removes few additional
  * partial results versus the static distance check, so the static check is
  * the faithful cost model here.) The contrast with IDX-DFS is exactly the
  * paper's: the search scans every neighbor that passes `B` (no `ds`-side
  * pruning, no pre-reduced relation), so it visits far more nodes.
  */
object BcDfs {

  /** The edges of one partition whose target has a `B` and whose source
    * is not `t`, with that `B`. */
  private final class RelationTask(src: Int, dst: Int, t: Long, b: Bfs.Distances)
      extends Bfs.Task[(Array[Long], Array[Long], Array[Int])] {
    def apply(ctx: TaskContext, it: Iterator[Row]): (Array[Long], Array[Long], Array[Int]) = {
      val (us, vs, bs) = (new mutable.ArrayBuilder.ofLong, new mutable.ArrayBuilder.ofLong,
        new mutable.ArrayBuilder.ofInt)
      while (it.hasNext) {
        val r = it.next()
        val u = Bfs.id(r, src)
        val v = Bfs.id(r, dst)
        val d = b(v, -1)
        if (u != t && d >= 0) {
          us.addOne(u)
          vs.addOne(v)
          bs.addOne(d)
        }
      }
      (us.result(), vs.result(), bs.result())
    }
  }

  /** Edge relation `(src, dst, B(dst))`: `B` is the BFS distance to `t`
    * over the full graph, k − 1 hops (no hop with `B(v') = k` passes
    * `L(M) + 1 + B(v') <= k`), then one job ([[RelationTask]]) keeps the
    * edges whose target has a `B` and whose source is not `t` (Definition
    * 2.1 stops at t): k jobs in all, each run by [[Bfs.Edges.run]]. */
  private def rows(graphEdges: DataFrame, q: HcQuery): (Array[Long], Array[Long], Array[Int]) = {
    val edges = Bfs.pairs(graphEdges)
    val b = Bfs.search(Bfs.sparkHop(edges), None, Some(q.t), q.k - 1)._2
    val found = edges.run(new RelationTask(edges.src, edges.dst, q.t, new Bfs.Distances(b)))
    (Bfs.concat(found.map(_._1)), Bfs.concat(found.map(_._2)),
      Bfs.concat(found.map(_._3)))
  }

  /** The relation `(er_src, er_dst, er_dt)` as a DataFrame, with its build
    * time. */
  def relation(spark: SparkSession, graphEdges: DataFrame, q: HcQuery): (DataFrame, Double) = {
    val t0 = System.nanoTime()
    val (u, v, d) = rows(graphEdges, q)
    val rel = spark.createDataFrame(u.indices.map(i => (u(i), v(i), d(i))))
      .toDF("er_src", "er_dst", "er_dt")
    (rel, (System.nanoTime() - t0) / 1e6)
  }

  /** The relation collected for the search, with its build time. */
  private[baseline] def collected(spark: SparkSession, graphEdges: DataFrame,
                                  q: HcQuery): (Adjacency[Unit], Double) = {
    val t0 = System.nanoTime()
    val (u, v, d) = rows(graphEdges, q)
    (Adjacency(u, v, d, Array.fill(u.length)(())), (System.nanoTime() - t0) / 1e6)
  }

  def run(spark: SparkSession, graphEdges: DataFrame, q: HcQuery,
          cfg: EnumConfig = EnumConfig()): PathEnumResult = {
    val (g, prepMs) = collected(spark, graphEdges, q)
    PathEnumResult(LeftDeepEnum.search(g, q, cfg), PlanInfo("BC-DFS", -1, None, None, None),
      prepMs, 0.0, -1, -1)
  }
}
