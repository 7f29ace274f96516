package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import scala.collection.mutable.ListBuffer

/** One extra value per partial path, carried in a column `st` — how
  * Appendix E extends Algorithm 4 (Alg. 7 accumulates edge values, Alg. 8
  * steps a label automaton). All fields are expressions over `col("st")`:
  *
  * @param init   the value of `st` on the seed path `[s]`
  * @param cond   extra edge condition over the joined row (old `st`, `er_*`)
  * @param next   the new `st` over the joined row
  * @param accept keeps a row that reached `t` (sees the new `st`)
  * @param carry  keeps a row that has not reached `t` (sees the new `st`)
  */
final case class PathState(init: Column, cond: Column, next: Column, accept: Column,
                           carry: Column)

/** Left-deep (DFS-shaped) enumeration engine — Algorithm 4 as a chain of
  * joins over an edge relation.
  *
  * The engine expands a partial-path DataFrame `(path: array<long>, last)`
  * one hop per level with [[step]]: level `i` joins partials of length `i-1`
  * with the edge relation, applies the hop-budget filter `dstDt <= k - i`
  * (the paper's `I_t(v, k - L(M) - 1)` lookup) and the simple-path check
  * `dst not in path` (Alg. 4 line 7), emits completed paths (`dst == t`) and
  * carries the rest forward. The result *set* equals the paper's DFS; only
  * emission order differs (level-synchronous vs depth-first).
  *
  * The edge relation decides the algorithm:
  *   - IDX-DFS: the pruned [[LightIndex]] edges (`er_dt` = indexed dt),
  *   - BC-DFS : the full edge list with `er_dt` = BFS distance-to-t over the
  *     whole graph (Algorithm 1's `B(v')` check) — see [[repro.baseline.BcDfs]],
  *   - the Appendix E variants: index edges joined with edge attributes,
  *     plus a [[PathState]] — see [[Extensions]].
  *
  * The wall-clock budget is checked between levels; a timed-out run reports
  * the results found so far (the paper's 120 s protocol, scaled).
  */
object LeftDeepEnum {

  /** The level step shared by every enumerator: extend partials
    * `(path, last[, st])` ending at path position `pos - 1` by one hop over
    * `edgeRel`, keeping rows with `er_dt <= k - pos` whose path stays simple.
    * Steps out of `t` are the `(t,t)` padding of [[JoinEnum]] and always
    * legal; relations without `src = t` rows never produce them. With a
    * `state`, its condition, next value and accept / carry tests apply
    * before the row cap. Returns the capped, persisted level.
    */
  private[core] def step(partial: DataFrame, edgeRel: DataFrame, q: HcQuery, pos: Int,
                         maxRows: Int, state: Option[PathState] = None): DataFrame = {
    val joined = partial.join(edgeRel, col("last") === col("er_src"))
      .where(col("er_dt") <= q.k - pos &&
        (col("er_src") === q.t || !array_contains(col("path"), col("er_dst"))))
    val extended = Seq(concat(col("path"), array(col("er_dst"))).as("path"),
                       col("er_dst").as("last"))
    val level = state match {
      case None => joined.select(extended: _*)
      case Some(st) =>
        joined.where(st.cond).select(extended :+ st.next.as("st"): _*)
          .where(when(col("last") === q.t, st.accept).otherwise(st.carry))
    }
    level.limit(maxRows).persist(StorageLevel.MEMORY_AND_DISK)
  }

  /** Expected columns of `edgeRel`: `er_src`, `er_dst`, `er_dt`. */
  def run(spark: SparkSession, edgeRel: DataFrame, q: HcQuery,
          cfg: EnumConfig = EnumConfig()): EnumResult =
    enumerate(spark, edgeRel, q, cfg, None)._1

  /** The level loop. With a `state`, also returns every accepted
    * `(path, st)` row, whatever `cfg.collectPaths` says. */
  private[core] def enumerate(spark: SparkSession, edgeRel: DataFrame, q: HcQuery,
                              cfg: EnumConfig,
                              state: Option[PathState]): (EnumResult, Seq[Row]) = {
    val t0 = System.nanoTime()
    def elapsedMs: Double = (System.nanoTime() - t0) / 1e6

    val persisted = ListBuffer.empty[DataFrame]
    val collected = ListBuffer.empty[Row]
    val perLevel = ListBuffer.empty[Long]
    var cum = 0L
    var responseMs: Option[Double] = None
    var timedOut = false
    var truncated = false
    var peakCells = 0L

    try {
      var partial = spark.range(1).select(
        Seq(array(lit(q.s)).as("path"), lit(q.s).as("last")) ++
          state.map(_.init.as("st")): _*)
      var partialRows = 1L
      var level = 1
      while (level <= q.k && partialRows > 0 && !timedOut) {
        val tLevel = System.nanoTime()
        // One materialization per level, bounded by the row cap: the limit
        // stops an exploding join before it swamps the session. A capped
        // level marks the run truncated (result counts become lower bounds,
        // as under the paper's 120 s kill) but expansion continues on the
        // capped frontier until the wall-clock budget runs out — the DFS
        // keeps emitting results, just like the paper's killed runs do.
        val kept = step(partial, edgeRel, q, level, cfg.maxLevelRows, state)
        persisted += kept
        val nKept = kept.count()
        if (nKept >= cfg.maxLevelRows) truncated = true

        val done = kept.where(col("last") === q.t).drop("last")
        val nDone = done.count()
        perLevel += nDone
        cum += nDone
        if ((cfg.collectPaths || state.isDefined) && nDone > 0) collected ++= done.collect()

        if (level < q.k) {
          partial = kept.where(col("last") =!= q.t)
          partialRows = nKept - nDone
          peakCells = math.max(peakCells, partialRows * (level + 1))
        } else partialRows = 0L

        if (sys.env.contains("REPRO_DEBUG")) Console.err.println(
          f"[leftdeep] level=$level kept=$nKept done=$nDone " +
          f"${(System.nanoTime() - tLevel) / 1e6}%.0f ms")
        if (responseMs.isEmpty && cum >= cfg.responseTarget) responseMs = Some(elapsedMs)
        if (elapsedMs > cfg.timeBudgetMs) timedOut = true
        level += 1
      }
      // A run that found everything but fewer than `responseTarget` results
      // "responded" when it finished (paper convention for small queries).
      if (responseMs.isEmpty && !timedOut && !truncated) responseMs = Some(elapsedMs)

      val paths = if (cfg.collectPaths) Some(collected.map(_.getSeq[Long](0)).toSeq) else None
      (EnumResult(cum, perLevel.toSeq, elapsedMs, responseMs, timedOut || truncated,
        peakCells, paths), collected.toSeq)
    } finally persisted.foreach(_.unpersist(blocking = false))
  }

  /** The IDX-DFS edge relation: pruned index edges. */
  def indexRelation(index: LightIndex): DataFrame =
    index.edges.select(
      col("src").as("er_src"), col("dst").as("er_dst"), col("dstDt").as("er_dt"))
}
