package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._

/** Variant-constraint extensions (Appendix E).
  *
  * All three extensions reuse the index-based left-deep engine, exactly as
  * the appendix extends Algorithm 4. The two stateful ones run the single
  * level loop of [[LeftDeepEnum]] with a [[PathState]] — one column `st`
  * per partial path — so they share its time budget, row cap and
  * truncation flag:
  *
  *  - **Predicates** (`f_p(e)`): filter the edge list before index build —
  *    the index then only contains qualifying edges ("we can conduct the
  *    filtering when computing the distance ... in the index building
  *    phase"), so no enumeration change is needed.
  *  - **Accumulative values** (Algorithm 7): `st` starts at `init` and
  *    becomes `st ⊕ w(e)` at each step; a path is emitted when its final
  *    value passes `f_a`. An optional monotone prune is the carry test: it
  *    cuts partials that can no longer satisfy the constraint (legal only
  *    when ⊕ is monotone, e.g. nonnegative-weight sums with an upper bound).
  *  - **Action sequences** (Algorithm 8): `st` is a DFA state. The edge
  *    relation is joined with the transition relation on the edge label;
  *    a step needs `tr_state = st` and moves `st` to `tr_next`. A path is
  *    emitted when it ends at `t` in an accepting state.
  */
object Extensions {

  /** Predicate constraint: keep only edges satisfying `pred` (a boolean
    * Column over `src`/`dst`/attribute columns), then run PathEnum — the
    * query-dependent index is built on the reduced graph. */
  def withPredicate(spark: SparkSession, attrEdges: DataFrame, pred: Column,
                    q: HcQuery, cfg: EnumConfig = EnumConfig()): PathEnumResult =
    PathEnum.run(spark, attrEdges.where(pred).select("src", "dst"), q, cfg)

  /** Accumulative-value constraint (Algorithm 7) on weighted edges
    * `(src, dst, w)`.
    *
    * @param init     initial accumulator (0 for sum, 1 for product, ...)
    * @param op       the ⊕ combine, e.g. `(acc, w) => acc + w`
    * @param accepts  final filter `f_a` over the accumulated Column
    * @param prune    optional partial-result prune (monotone ⊕ only)
    */
  def accumulative(spark: SparkSession, weightedEdges: DataFrame, q: HcQuery,
                   init: Double, op: (Column, Column) => Column, accepts: Column => Column,
                   prune: Option[Column => Column] = None,
                   cfg: EnumConfig = EnumConfig()): (PathEnumResult, Seq[(Seq[Long], Double)]) = {
    val st = col("st")
    val state = PathState(init = lit(init), cond = lit(true), next = op(st, col("er_w")),
      accept = accepts(st), carry = prune.fold(lit(true))(_(st)))
    val attrs = weightedEdges.select(col("src").as("er_src"), col("dst").as("er_dst"),
      col("w").as("er_w"))
    val (res, rows) = runIndexed(spark, weightedEdges, attrs, q, cfg, state, "DFS(acc)")
    (res, rows.map(r => (r.getSeq[Long](0), r.getAs[Number](1).doubleValue)))
  }

  /** Action-sequence constraint (Algorithm 8) on labeled edges
    * `(src, dst, lbl)` with DFA transitions `(state, lbl, next)` and a set
    * of accepting states. */
  def automaton(spark: SparkSession, labeledEdges: DataFrame, q: HcQuery,
                transitions: DataFrame, startState: Long, acceptStates: Set[Long],
                cfg: EnumConfig = EnumConfig()): (PathEnumResult, Seq[(Seq[Long], Long)]) = {
    val st = col("st")
    // A[a][l(e)]: each edge row carries the transitions on its label; the
    // step keeps the one leaving the current state, and edges with none
    // drop out (the appendix's `a' = null` skip).
    val state = PathState(init = lit(startState), cond = col("tr_state") === st,
      next = col("tr_next"), accept = st.isin(acceptStates.toSeq: _*), carry = lit(true))
    val attrs = labeledEdges.select(col("src").as("er_src"), col("dst").as("er_dst"), col("lbl"))
      .join(transitions.select(col("lbl"), col("state").as("tr_state"),
        col("next").as("tr_next")), "lbl")
    val (res, rows) = runIndexed(spark, labeledEdges, attrs, q, cfg, state, "DFS(dfa)")
    (res, rows.map(r => (r.getSeq[Long](0), r.getAs[Number](1).longValue)))
  }

  /** Build the index of `q` on `graphEdges`, join its relation with the
    * per-edge attributes `attrs` (keyed by `er_src`, `er_dst`) and run the
    * left-deep loop with `state`. Returns the accepted `(path, st)` rows. */
  private def runIndexed(spark: SparkSession, graphEdges: DataFrame, attrs: DataFrame,
                         q: HcQuery, cfg: EnumConfig, state: PathState,
                         plan: String): (PathEnumResult, Seq[Row]) = {
    val index = LightIndex.build(spark, graphEdges.select("src", "dst"), q)
    try {
      val rel = LeftDeepEnum.indexRelation(index).join(attrs, Seq("er_src", "er_dst"))
      val (res, rows) = LeftDeepEnum.enumerate(spark, rel, q, cfg, Some(state))
      (PathEnumResult(res, PlanInfo(plan, -1, None, None, None),
        index.buildMs, 0.0, index.edgeCount, index.memoryBytes), rows)
    } finally index.unpersist()
  }
}
