package repro.baseline

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.core.{Adjacency, EnumConfig, HcQuery, LeftDeepEnum, PathEnumResult, PlanInfo}
import repro.graph.{Bfs, GraphGen}

/** BC-DFS baseline — the state-of-the-art polynomial-delay competitor [29]
  * on the same search routine as IDX-DFS.
  *
  * Algorithm 1: search over the **full** edge list; before the search, one
  * BFS from `t` along `G^r` initializes `B(v) = S(v, t | G)` on Spark, the
  * relation is collected once, and each step only checks
  * `L(M) + 1 + B(v') <= k` plus the duplicate-vertex test. (The
  * dynamic barrier maintenance of [29] prunes sub-trees discovered empty;
  * the paper's own measurements — Figure 6 — show it removes few additional
  * partial results versus the static distance check, so the static check is
  * the faithful cost model here.) The contrast with IDX-DFS is exactly the
  * paper's: the search scans every neighbor that passes `B` (no `ds`-side
  * pruning, no pre-reduced relation), so it visits far more nodes.
  */
object BcDfs {

  /** Edge relation: full edges with `er_dt = B(dst)`; vertices that cannot
    * reach `t` drop out (their check can never pass), and edges out of `t`
    * are never followed (Definition 2.1 stops at t). */
  private def edges(spark: SparkSession, graphEdges: DataFrame, q: HcQuery): DataFrame = {
    val b = Bfs.distances(spark, GraphGen.reverse(graphEdges), q.t, q.k)
    graphEdges
      .join(b.select(col("v").as("dst"), col("dist").as("er_dt")), "dst")
      .where(col("src") =!= q.t)
      .select(col("src").as("er_src"), col("dst").as("er_dst"), col("er_dt"))
  }

  /** The relation, persisted, with its build time. */
  def relation(spark: SparkSession, graphEdges: DataFrame, q: HcQuery): (DataFrame, Double) = {
    val t0 = System.nanoTime()
    val rel = edges(spark, graphEdges, q).persist(StorageLevel.MEMORY_AND_DISK)
    rel.count()
    (rel, (System.nanoTime() - t0) / 1e6)
  }

  /** The relation collected for the search, with its build time. */
  private[baseline] def collected(spark: SparkSession, graphEdges: DataFrame,
                                  q: HcQuery): (Adjacency[Unit], Double) = {
    val t0 = System.nanoTime()
    val g = Adjacency.collect(edges(spark, graphEdges, q))
    (g, (System.nanoTime() - t0) / 1e6)
  }

  def run(spark: SparkSession, graphEdges: DataFrame, q: HcQuery,
          cfg: EnumConfig = EnumConfig()): PathEnumResult = {
    val (g, prepMs) = collected(spark, graphEdges, q)
    PathEnumResult(LeftDeepEnum.search(g, q, cfg), PlanInfo("BC-DFS", -1, None, None, None),
      prepMs, 0.0, -1, -1)
  }
}
