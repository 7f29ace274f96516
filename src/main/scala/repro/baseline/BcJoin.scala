package repro.baseline

import org.apache.spark.sql.DataFrame
import repro.core.{EnumConfig, HcQuery, JoinEnum, PathEnumResult, PlanInfo}

/** BC-JOIN baseline — the join-oriented algorithm of [29].
  *
  * It cuts the query at the fixed middle position `⌈k/2⌉`, computes the
  * paths from `s` to the middle vertices and from the middle vertices to
  * `t` with the DFS procedure over the full graph (same `B(v)` check as
  * BC-DFS, no light-weight index, no cost-based cut), then hash-joins the
  * halves. Reuses [[JoinEnum]] with the collected BC edge relation, so the
  * only differences from IDX-JOIN are the ones the paper credits: the
  * reduced edge set and the optimized cut position.
  */
object BcJoin {

  def run(graphEdges: DataFrame, q: HcQuery, cfg: EnumConfig = EnumConfig()): PathEnumResult = {
    val (g, prepMs) = BcDfs.collected(graphEdges, q)
    val cut = (q.k + 1) / 2
    PathEnumResult(JoinEnum.search(g, q, cut, cfg), PlanInfo("BC-JOIN", -1, Some(cut), None, None),
      prepMs, 0.0, -1, -1)
  }
}
