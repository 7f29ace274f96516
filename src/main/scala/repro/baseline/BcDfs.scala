package repro.baseline

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Adjacency, EnumConfig, HcQuery, LeftDeepEnum, LightIndex, PathEnumResult, PlanInfo}
import repro.graph.Bfs

/** BC-DFS baseline — the state-of-the-art polynomial-delay competitor [29]
  * on the same search routine as IDX-DFS.
  *
  * Algorithm 1: before the search, one BFS to `t` initializes
  * `B(v) = S(v, t | G)` over the whole graph, and each step only checks
  * `L(M) + 1 + B(v') <= k` plus the duplicate-vertex test. (The
  * dynamic barrier maintenance of [29] prunes sub-trees discovered empty;
  * the paper's own measurements — Figure 6 — show it removes few additional
  * partial results versus the static distance check, so the static check is
  * the faithful cost model here.) The contrast with IDX-DFS is exactly the
  * paper's: the search scans every neighbor that passes `B` (no `ds`-side
  * pruning of the vertices it enters), so it visits far more nodes.
  */
object BcDfs {

  /** The relation `(src, dst, B(dst))`, every edge the search can read, in
    * ⌈k/2⌉ Spark jobs like the index: [[LightIndex.candidates]] with no stop
    * set to `t` (`B` may pass through `s`), then [[fromCandidates]]. */
  private def rows(graphEdges: DataFrame, q: HcQuery): (Array[Long], Array[Long], Array[Int]) =
    LightIndex.candidates(Bfs.pairs(graphEdges), q, Set.empty)(_ => ()) match {
      case (src, dst, _) => fromCandidates(src, dst, q)
    }

  /** The driver finish, with no Spark: `B` over the edges `src(i) -> dst(i)`
    * for k − 1 hops ([[Bfs.Local]]), and the edges with `u != t` whose
    * target has a `B`. The search reads `(u, v)` at depth `L` only if
    * `L + 1 + B(v) <= k`, and `lbS(u) <= L`, `lbT(v) <= B(v)`, so it is a
    * candidate. So is each edge `(x, y)` on a shortest v→t path:
    * `lbS(x) + 1 + lbT(y) <= L + 1 + B(v) <= k`, so `B(v)` is exact, over
    * the candidates or any superset of them (the whole edge list too), and
    * the readable slots are the same. Slots are ordered by `(B, id)`: the
    * search scans the same prefixes, in the same order, as over `G`. */
  private[baseline] def fromCandidates(src: Array[Long], dst: Array[Long],
                                       q: HcQuery): (Array[Long], Array[Long], Array[Int]) = {
    val g = new Bfs.Local(src, dst)
    val b = g.backward(q.t, q.k - 1)
    val t = g.vertex(q.t)
    def kept(i: Int): Boolean = g.from(i) != t && b(g.to(i)) >= 0
    var n = 0
    var i = 0
    while (i < src.length) { if (kept(i)) n += 1; i += 1 }
    val (u, v, d) = (new Array[Long](n), new Array[Long](n), new Array[Int](n))
    n = 0
    i = 0
    while (i < src.length) {
      if (kept(i)) { u(n) = src(i); v(n) = dst(i); d(n) = b(g.to(i)); n += 1 }
      i += 1
    }
    (u, v, d)
  }

  /** The relation `(er_src, er_dst, er_dt)` as a DataFrame, with its build
    * time. */
  def relation(spark: SparkSession, graphEdges: DataFrame, q: HcQuery): (DataFrame, Double) = {
    val t0 = System.nanoTime()
    val (u, v, d) = rows(graphEdges, q)
    (spark.createDataFrame(u.indices.map(i => (u(i), v(i), d(i)))).toDF("er_src", "er_dst", "er_dt"),
      (System.nanoTime() - t0) / 1e6)
  }

  /** The relation collected for the search, with its build time. */
  private[baseline] def collected(graphEdges: DataFrame, q: HcQuery): (Adjacency[Unit], Double) = {
    val t0 = System.nanoTime()
    val (u, v, d) = rows(graphEdges, q)
    (Adjacency(u, v, d, Array.fill(u.length)(())), (System.nanoTime() - t0) / 1e6)
  }

  def run(spark: SparkSession, graphEdges: DataFrame, q: HcQuery,
          cfg: EnumConfig = EnumConfig()): PathEnumResult = {
    val (g, prepMs) = collected(graphEdges, q)
    PathEnumResult(LeftDeepEnum.search(g, q, cfg), PlanInfo("BC-DFS", -1, None, None, None),
      prepMs, 0.0, -1, -1)
  }
}
