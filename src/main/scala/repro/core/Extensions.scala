package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._
import repro.graph.Bfs
import scala.reflect.ClassTag

/** Variant-constraint extensions (Appendix E).
  *
  * All three extensions reuse the index-based left-deep engine, exactly as
  * the appendix extends Algorithm 4. The two stateful ones run its one
  * depth-first search ([[LeftDeepEnum.dfs]]) with one value per path, so
  * they share its time budget, row cap and truncation flag:
  *
  *  - **Predicates** (`f_p(e)`): filter the edge list before index build —
  *    the index then only contains qualifying edges ("we can conduct the
  *    filtering when computing the distance ... in the index building
  *    phase"), so no enumeration change is needed.
  *  - **Accumulative values** (Algorithm 7): the value starts at `init` and
  *    becomes `op(value, w(e))` at each hop; a path is emitted when its
  *    final value passes `f_a`. An optional monotone prune is tested at
  *    every other vertex: it cuts partials that can no longer satisfy the
  *    constraint (legal only when ⊕ is monotone, e.g. nonnegative-weight
  *    sums with an upper bound).
  *  - **Action sequences** (Algorithm 8): the value is a state of a
  *    deterministic automaton. A hop along an edge labelled `l` needs a
  *    transition `(state, l, next)` and moves to `next` (the appendix's
  *    `a' = null` skip otherwise). A path is emitted when it ends at `t`
  *    in an accepting state.
  *
  * The edge relation keeps one entry per distinct `(src, dst, attribute)`:
  * parallel edges with equal weight or label are one edge, and parallel
  * edges with different weights or labels are distinct paths, as in a
  * multigraph.
  */
object Extensions {

  /** Predicate constraint: keep only edges satisfying `pred` (a boolean
    * Column over `src`/`dst`/attribute columns), then run PathEnum — the
    * query-dependent index is built on the reduced graph. */
  def withPredicate(attrEdges: DataFrame, pred: Column, q: HcQuery,
                    cfg: EnumConfig = EnumConfig()): PathEnumResult =
    PathEnum.run(attrEdges.sparkSession, attrEdges.where(pred).select("src", "dst"), q, cfg)

  /** Accumulative-value constraint (Algorithm 7) on weighted edges
    * `(src, dst, w)`.
    *
    * @param init     initial accumulator (0 for sum, 1 for product, ...)
    * @param op       the ⊕ combine, e.g. `(acc, w) => acc + w`
    * @param accepts  final filter `f_a` over the accumulated value
    * @param prune    optional partial-result prune (monotone ⊕ only)
    */
  def accumulative(weightedEdges: DataFrame, q: HcQuery,
                   init: Double, op: (Double, Double) => Double, accepts: Double => Boolean,
                   prune: Option[Double => Boolean] = None,
                   cfg: EnumConfig = EnumConfig()): (PathEnumResult, Seq[(Seq[Long], Double)]) =
    runIndexed(weightedEdges, col("w").cast("double"), _.getDouble(2), q, cfg, "DFS(acc)",
      init, accepts) { g =>
      val t = g.vertex(q.t)
      (acc, e) => Some(op(acc, g.attr(e))).filter(v => g.dst(e) == t || prune.forall(_(v)))
    }(Ordering.Double.TotalOrdering, ClassTag.Double)

  /** Action-sequence constraint (Algorithm 8) on labeled edges
    * `(src, dst, lbl)` with DFA transitions `(state, lbl, next)` and a set
    * of accepting states. */
  def automaton(labeledEdges: DataFrame, q: HcQuery,
                transitions: DataFrame, startState: Long, acceptStates: Set[Long],
                cfg: EnumConfig = EnumConfig()): (PathEnumResult, Seq[(Seq[Long], Long)]) = {
    val rows = transitions.select(col("state").cast("long"), col("lbl").cast("long"),
      col("next").cast("long")).collect().map(r => (r.getLong(0), r.getLong(1)) -> r.getLong(2))
    val delta = rows.toMap
    require(delta.size == rows.distinct.length, "transitions must be deterministic")
    runIndexed(labeledEdges, col("lbl").cast("long"), _.getLong(2), q, cfg, "DFS(dfa)",
      startState, acceptStates) { g =>
      (state, e) => delta.get((state, g.attr(e)))
    }
  }

  /** Build the index of `q` on `graphEdges`, carrying the per-edge
    * attribute `attr` (read by `get` from column 2 of `(src, dst, attr)`)
    * through the index's own edge job, and run the search over it from
    * `init` with the hop test `next(g)`. Returns the accepted paths with
    * their final values. */
  private def runIndexed[A: Ordering: ClassTag, S](graphEdges: DataFrame, attr: Column,
      get: Row => A, q: HcQuery, cfg: EnumConfig, plan: String, init: S, accept: S => Boolean)(
      next: Adjacency[A] => LeftDeepEnum.Hop[S]): (PathEnumResult, Seq[(Seq[Long], S)]) = {
    val edges = Bfs.pairs(graphEdges.select(col("src"), col("dst"), attr))
    val index = LightIndex.collect(edges, q)(get)
    val g = index.local
    val (res, found) = LeftDeepEnum.searchWith(g, q, cfg, init, next(g), accept, keep = true)
    (PathEnum.result(index, res, PlanInfo(plan, -1, None, None, None), 0.0), found)
  }
}
