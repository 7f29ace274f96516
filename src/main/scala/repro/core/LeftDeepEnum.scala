package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.collection.mutable.ListBuffer

/** Left-deep (DFS-shaped) enumeration engine — Algorithm 4 as a real
  * depth-first search over an [[Adjacency]] collected on the driver.
  *
  * [[dfs]] is the only search routine in the program. From a partial path
  * ending at position `pos - 1` it follows the slots of the last vertex
  * with `dt <= k - pos` (the paper's `I_t(v, k - L(M) - 1)` prefix) whose
  * target is not on the path (Alg. 4 line 7), and it holds only the
  * current path. The relation decides the algorithm:
  *   - IDX-DFS: the pruned [[LightIndex]] edges (`dt` = indexed dt),
  *   - BC-DFS : every edge this search can read, with `dt` = BFS distance-to-t
  *     over the whole graph (Algorithm 1's `B(v)`) — see [[repro.baseline.BcDfs]],
  *   - both halves of [[JoinEnum]], and the Appendix E variants with one
  *     value per path — see [[Extensions]].
  *
  * The time budget is checked at the first search node and every 1 024th
  * after it, and the row cap bounds the emitted results, so a cut-off run
  * returns a deterministic DFS-order prefix of the results (the paper's
  * 120 s protocol, scaled).
  */
object LeftDeepEnum {

  /** A hop test: the path value after a hop from value `st` along slot
    * `e`, or None to forbid the hop. (A trait rather than a function type,
    * so that the slot is passed unboxed at every edge scanned.) */
  private[core] trait Hop[S] { def apply(st: S, e: Int): Option[S] }

  /** The hop test of the plain engines: every hop allowed, no path value. */
  private val anyHop = Some(())
  private[core] val free: Hop[Unit] = (_, _) => anyHop

  /** Depth-first search over `g` from vertex number `start` at path position
    * `from` to position `to` (both ends included). A hop along slot `e` to a
    * target off the path must pass the `dt` bound and `next(st, e)`. The search
    * does not descend past `t` or position `to`; there it calls
    * `visit(path, depth, st)`, with the vertex numbers of the path in
    * `path(0..depth)` (valid during the call only). `nodes(depth)` counts
    * the nodes entered. `expired()` is read at the first node and then at
    * every 1 024th, so a search overruns its budget by under 1 024 nodes.
    * Returns false if `expired()` held at a node or `visit` returned false,
    * which stop the search.
    */
  private[core] def dfs[S](g: Adjacency[_], t: Int, k: Int, start: Int, from: Int, to: Int,
                           init: S, next: Hop[S], expired: () => Boolean,
                           nodes: Array[Long])(visit: (Array[Int], Int, S) => Boolean): Boolean = {
    val path = new Array[Int](to - from + 1)
    val onPath = new Array[Boolean](g.vertexCount)
    var tick = 0 // nodes entered, mod 1 024
    def go(d: Int, st: S): Boolean = {
      if (tick == 0 && expired()) return false
      tick = (tick + 1) & 1023
      nodes(d) += 1
      val v = path(d)
      if (v == t || d == to - from) return visit(path, d, st)
      val budget = k - (from + d + 1)
      onPath(v) = true
      var ok = true
      var e = g.first(v)
      while (ok && e < g.end(v) && g.dt(e) <= budget) {
        if (!onPath(g.dst(e))) next(st, e) match {
          case Some(st2) => path(d + 1) = g.dst(e); ok = go(d + 1, st2)
          case None =>
        }
        e += 1
      }
      onPath(v) = false
      ok
    }
    path(0) = start
    go(0, init)
  }

  /** Expected columns of `edgeRel`: `er_src`, `er_dst`, `er_dt`. Collects
    * it once, then runs [[search]]. */
  def run(spark: SparkSession, edgeRel: DataFrame, q: HcQuery,
          cfg: EnumConfig = EnumConfig()): EnumResult =
    search(Adjacency.collect(edgeRel), q, cfg)

  /** IDX-DFS / BC-DFS over a collected relation. */
  def search(g: Adjacency[_], q: HcQuery, cfg: EnumConfig): EnumResult =
    searchWith(g, q, cfg, (), free, (_: Unit) => true, keep = false)._1

  /** The search from `s` with a path value: `next` as in [[dfs]], and a path
    * that reaches `t` is a result if `accept` holds for its final value.
    * Also returns the results with their values if `keep` (or
    * `cfg.collectPaths`) is set. */
  private[core] def searchWith[S](g: Adjacency[_], q: HcQuery, cfg: EnumConfig, init: S,
                                  next: Hop[S], accept: S => Boolean,
                                  keep: Boolean): (EnumResult, Seq[(Seq[Long], S)]) = {
    val t0 = System.nanoTime()
    def elapsedMs: Double = (System.nanoTime() - t0) / 1e6
    val t = g.vertex(q.t)
    val start = g.vertex(q.s)
    val perLevel = new Array[Long](q.k)
    val nodes = new Array[Long](q.k + 1)
    val found = ListBuffer.empty[(Seq[Long], S)]
    var n = 0L
    var responseMs: Option[Double] = None
    val complete = start < 0 || dfs(g, t, q.k, start, 0, q.k, init, next,
      () => elapsedMs >= cfg.timeBudgetMs, nodes) { (path, d, st) =>
      if (path(d) != t || !accept(st)) true
      else {
        n += 1
        perLevel(d - 1) += 1
        if (keep || cfg.collectPaths) found += ((path.take(d + 1).map(g.ids(_)).toSeq, st))
        if (n == cfg.responseTarget) responseMs = Some(elapsedMs)
        n < cfg.maxLevelRows
      }
    }
    // A run that found everything but fewer than `responseTarget` results
    // "responded" when it finished (paper convention for small queries).
    if (responseMs.isEmpty && complete) responseMs = Some(elapsedMs)
    val paths = if (cfg.collectPaths) Some(found.map(_._1).toSeq) else None
    // The search holds one path: its longest is the peak materialized.
    (EnumResult(n, perLevel.toSeq, elapsedMs, responseMs, !complete,
      nodes.lastIndexWhere(_ > 0) + 1, paths), found.toSeq)
  }

  /** The IDX-DFS edge relation `(er_src, er_dst, er_dt)`: the index edges
    * as a DataFrame of the active session. */
  def indexRelation(index: LightIndex[_]): DataFrame = {
    val g = index.local
    val rows = for (v <- g.ids.indices; e <- g.first(v) until g.end(v))
      yield (g.ids(v), g.ids(g.dst(e)), g.dt(e))
    SparkSession.active.createDataFrame(rows).toDF("er_src", "er_dst", "er_dt")
  }
}
