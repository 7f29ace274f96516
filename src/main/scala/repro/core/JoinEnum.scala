package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import scala.collection.mutable.ListBuffer

/** Bushy (join-shaped) enumeration engine — Algorithm 6 as two expansions
  * plus a hash join.
  *
  * The query is cut at position `cut` (the optimizer's `i*`): `Q[0:cut]` is
  * evaluated as a forward expansion from `s` of exactly `cut` hops and
  * `Q[cut:k]` as an expansion from the cut vertices of exactly `k - cut`
  * hops, both over the edge relation augmented with the `(t,t)` padding
  * self-loop of the join model (Section 3.1) so paths shorter than `k`
  * survive the fixed-length join. The halves are then hash-joined on the
  * cut vertex; trailing t-padding is stripped and tuples that are not
  * simple paths are dropped (the paper performs the same validity check
  * "when performing the join operation").
  *
  * Per-half duplicate-vertex checks run during expansion (cheap, prunes
  * walks early); duplicates *across* the halves can only be caught after
  * the join, exactly as in the paper.
  */
object JoinEnum {

  /** Add the `(t,t)` padding self-loop (with `dt = 0`) to an edge relation
    * of columns `er_src`, `er_dst`, `er_dt` that has no `src = t` rows. */
  def pad(spark: SparkSession, edgeRel: DataFrame, t: Long): DataFrame =
    edgeRel.union(
      spark.range(1).select(lit(t).as("er_src"), lit(t).as("er_dst"),
        lit(0).cast("int").as("er_dt")))

  /** One half-expansion: extend `seed` (columns `path`, `last`) from global
    * path position `fromPos` to `toPos` over a padded relation, one
    * [[LeftDeepEnum.step]] per position. Returns the persisted result, its
    * row count, the peak materialized cell count and whether the row cap
    * truncated a level (results become lower bounds, as under the paper's
    * 120 s kill). Returns None only if the wall-clock budget expired.
    */
  private def expandHalf(seed: DataFrame, fromPos: Int, toPos: Int, relPad: DataFrame,
                         q: HcQuery, persisted: ListBuffer[DataFrame],
                         deadline: () => Boolean,
                         maxRows: Int): Option[(DataFrame, Long, Long, Boolean)] = {
    var partial = seed
    var rows = -1L
    var peak = 0L
    var truncated = false
    for (p <- (fromPos + 1) to toPos) {
      if (deadline()) return None
      partial = LeftDeepEnum.step(partial, relPad, q, p, maxRows)
      persisted += partial
      rows = partial.count()
      if (rows >= maxRows) truncated = true
      peak = math.max(peak, rows * (p - fromPos + 1))
      if (rows == 0) return Some((partial, 0L, peak, truncated))
    }
    Some((partial, rows, peak, truncated))
  }

  /** Expected columns of `edgeRel`: `er_src`, `er_dst`, `er_dt` (no rows
    * with `er_src = t`). `cut` must be in `1 .. k-1`. */
  def run(spark: SparkSession, edgeRel: DataFrame, q: HcQuery, cut: Int,
          cfg: EnumConfig = EnumConfig()): EnumResult = {
    require(cut >= 1 && cut < q.k, s"cut must be in [1, k-1], got $cut")
    val t0 = System.nanoTime()
    def elapsedMs: Double = (System.nanoTime() - t0) / 1e6
    def overBudget(): Boolean = elapsedMs > cfg.timeBudgetMs

    val persisted = ListBuffer.empty[DataFrame]
    try {
      val relPad = pad(spark, edgeRel, q.t)
      val seedA = spark.range(1).select(array(lit(q.s)).as("path"), lit(q.s).as("last"))

      expandHalf(seedA, 0, cut, relPad, q, persisted, overBudget _, cfg.maxLevelRows) match {
        case None =>
          EnumResult(0L, Seq.empty, elapsedMs, None, timedOut = true, 0L, None)
        case Some((ra, nRa, peakA, truncA)) =>
          if (nRa == 0)
            return EnumResult(0L, Seq.empty, elapsedMs, Some(elapsedMs), timedOut = truncA,
              peakA, if (cfg.collectPaths) Some(Seq.empty) else None)
          val cellsA = nRa * (cut + 1)
          // Seeds for Q[cut:k]: the distinct cut vertices (Alg. 6 line 3).
          val seedB = ra.select(col("last")).distinct()
            .select(array(col("last")).as("path"), col("last"))
          expandHalf(seedB, cut, q.k, relPad, q, persisted, overBudget _, cfg.maxLevelRows) match {
            case None =>
              EnumResult(0L, Seq.empty, elapsedMs, None, timedOut = true,
                cellsA + peakA, None)
            case Some((rbAll, _, peakB, truncB)) =>
              val rb = rbAll.where(col("last") === q.t)
                .select(col("path").as("bpath"))
                .persist(StorageLevel.MEMORY_AND_DISK)
              persisted += rb
              val nRb = rb.count()
              val cells = cellsA + math.max(nRb * (q.k - cut + 1), peakB)
              // Hash join on the cut vertex, strip padding, keep simple paths.
              val joined = ra.join(rb, col("last") === element_at(col("bpath"), 1))
                .select(concat(col("path"), slice(col("bpath"), 2, q.k - cut)).as("full"))
                .select(slice(col("full"), lit(1),
                  array_position(col("full"), q.t).cast("int")).as("path"))
                .where(size(array_distinct(col("path"))) === size(col("path")))
                .limit(cfg.maxLevelRows) // final join can explode too
                .persist(StorageLevel.MEMORY_AND_DISK)
              persisted += joined
              val n = joined.count()
              val truncated = n >= cfg.maxLevelRows
              val paths =
                if (cfg.collectPaths) Some(joined.collect().toSeq.map(_.getSeq[Long](0).toSeq))
                else None
              // The paper reports no response time for join-based methods
              // (results only exist after the final join) — mirror that.
              EnumResult(n, Seq.empty, elapsedMs, None,
                overBudget() || truncated || truncA || truncB, cells, paths)
          }
      }
    } finally persisted.foreach(_.unpersist(blocking = false))
  }
}
