package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Which plan the optimizer executed, and why. */
final case class PlanInfo(
    plan: String,            // "DFS(prelim)" | "DFS(cost)" | "JOIN"
    prelimEstimate: Double,
    cut: Option[Int],
    tDfs: Option[Long],
    tJoin: Option[Long])

/** Outcome of a full PathEnum run (index build + optimize + enumerate). */
final case class PathEnumResult(
    `enum`: EnumResult,
    planInfo: PlanInfo,
    indexBuildMs: Double,
    optimizeMs: Double,
    indexEdges: Long,
    indexBytes: Long) {
  /** Total query time: preprocessing + optimization + enumeration (the
    * paper's query-time metric includes all three). */
  def queryTimeMs: Double = indexBuildMs + optimizeMs + enum.elapsedMs

  /** Results per second of the query time (Section 7), from the results
    * found when the run ended, as the paper does for killed queries; 0 for
    * an instant run. */
  def throughput: Double = if (queryTimeMs <= 0) 0.0 else enum.results * 1000.0 / queryTimeMs

  /** Response time from the query's start: the enumeration's, plus index
    * build and optimization; the whole query time where the enumeration
    * recorded none (a JOIN plan, or a run cut off short of the target). */
  def responseMs: Double = enum.responseMs.fold(queryTimeMs)(_ + indexBuildMs + optimizeMs)
}

/** Top-level PathEnum (Figure 2): build the light-weight index, run the
  * two-phase query optimizer, and enumerate with the chosen plan. Only the
  * index build runs Spark jobs, at most ⌈k/2⌉ ([[LightIndex.collect]]);
  * the optimizer and the plans run on the driver-side index it returns
  * (`local`, `ds`, `dt`).
  *
  * Phase 1: the preliminary estimator (Eq. 5) computes T̂ from the
  * collected index; if T̂ <= τ the search space is small and IDX-DFS runs
  * directly (optimization would dominate such queries). Phase 2: the
  * full-fledged DP (Alg. 5) produces exact walk-count cardinalities, the
  * best cut i*, and the Eq.-1 costs T_DFS / T_JOIN; the cheaper plan runs.
  *
  * τ is 1e4 unless the caller passes another: calibrated like the paper's
  * 1e5 — the time our substrate needs to find τ results is comparable to
  * the optimization time, so skipping optimization below τ never hurts.
  */
object PathEnum {

  val defaultTau: Double = 1e4

  def run(spark: SparkSession, graphEdges: DataFrame, q: HcQuery,
          cfg: EnumConfig = EnumConfig(), tau: Double = defaultTau): PathEnumResult = {
    val index = LightIndex.build(spark, graphEdges, q)
    val tOpt0 = System.nanoTime()
    val tHat = Estimator.preliminary(spark, index)
    val dp = if (tHat <= tau) None else Some(Estimator.full(spark, index))
    val optMs = (System.nanoTime() - tOpt0) / 1e6
    val (plan, res) = dp match {
      case None => ("DFS(prelim)", LeftDeepEnum.search(index.local, q, cfg))
      case Some(d) if d.tDfs <= d.tJoin => ("DFS(cost)", LeftDeepEnum.search(index.local, q, cfg))
      case Some(d) => ("JOIN", JoinEnum.search(index.local, q, d.bestCut, cfg))
    }
    result(index, res, PlanInfo(plan, tHat, dp.map(_.bestCut), dp.map(_.tDfs), dp.map(_.tJoin)),
      optMs)
  }

  /** IDX-DFS as a standalone competitor (Table 3 column). */
  def idxDfs(graphEdges: DataFrame, q: HcQuery, cfg: EnumConfig = EnumConfig()): PathEnumResult = {
    val index = LightIndex.build(graphEdges.sparkSession, graphEdges, q)
    result(index, LeftDeepEnum.search(index.local, q, cfg),
      PlanInfo("DFS(forced)", -1, None, None, None), 0.0)
  }

  /** IDX-JOIN as a standalone competitor (Table 3 column): always optimizes
    * the cut with the full DP and runs the bushy plan. */
  def idxJoin(graphEdges: DataFrame, q: HcQuery, cfg: EnumConfig = EnumConfig()): PathEnumResult = {
    val index = LightIndex.build(graphEdges.sparkSession, graphEdges, q)
    val dp = Estimator.full(graphEdges.sparkSession, index)
    result(index, JoinEnum.search(index.local, q, dp.bestCut, cfg),
      PlanInfo("JOIN(forced)", -1, Some(dp.bestCut), Some(dp.tDfs), Some(dp.tJoin)), dp.optMs)
  }

  /** A run on `index` with its build time and size. */
  private[core] def result(index: LightIndex[_], res: EnumResult, plan: PlanInfo,
                           optMs: Double): PathEnumResult =
    PathEnumResult(res, plan, index.buildMs, optMs, index.edgeCount, index.memoryBytes)
}
