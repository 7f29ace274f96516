package repro.core

/** A hop-constrained s-t path enumeration query `q(s, t, k)` (Section 2.1).
  * Paths have at most `k` edges; interior vertices are not in `{s, t}`.
  */
final case class HcQuery(s: Long, t: Long, k: Int) {
  require(s != t, s"s and t must be distinct (got $s)")
  require(k >= 2, s"the paper assumes k >= 2 (got $k)")
}

/** The settings of one enumeration run. With the optimizer's τ (a
  * parameter of `PathEnum.run`) they are all the program's settings.
  *
  * @param timeBudgetMs  wall-clock cap on enumeration, checked at the
  *                      first search node and every 1 024th after it (the
  *                      paper caps each query at 120 s; benches scale this
  *                      down).
  * @param responseTarget #results after which "response time" is recorded
  *                      (the paper uses the first 1000 results).
  * @param collectPaths  materialize the result paths on the driver (tests);
  *                      benches leave this off and use counts only.
  * @param maxLevelRows  row cap: bounds the emitted results and each
  *                      materialized half of a JOIN plan. The search stops
  *                      when it is reached, so the results are a
  *                      deterministic DFS-order prefix. Hitting the cap
  *                      marks the run timed out / truncated, like the
  *                      paper's 120 s kill.
  */
final case class EnumConfig(
    timeBudgetMs: Long = 10000L,
    responseTarget: Long = 1000L,
    collectPaths: Boolean = false,
    maxLevelRows: Int = 200000)

/** Outcome of one enumeration run.
  *
  * @param results    number of paths found (within the budget if `timedOut`)
  * @param perLevel   paths found per length (index i = paths with i + 1
  *                   edges); empty for JOIN plans
  * @param elapsedMs  total enumeration wall time
  * @param responseMs elapsed time when the DFS emitted its `responseTarget`-th
  *                   result (the run's end if it found fewer and finished;
  *                   None if it found fewer and was cut off, and for JOIN)
  * @param timedOut   true if the budget expired or the row cap was reached
  *                   before exhaustion (counts are then lower bounds)
  * @param peakPartialCells  max #cells (rows x path length) of materialized
  *                   partial results — the paper's Table 7 "partial results":
  *                   the longest path for DFS, which holds only its current
  *                   path (the paper's O(k) point); the widest levels of
  *                   both halves for JOIN
  * @param paths      driver-collected result paths if requested
  */
final case class EnumResult(
    results: Long,
    perLevel: Seq[Long],
    elapsedMs: Double,
    responseMs: Option[Double],
    timedOut: Boolean,
    peakPartialCells: Long,
    paths: Option[Seq[Seq[Long]]])
