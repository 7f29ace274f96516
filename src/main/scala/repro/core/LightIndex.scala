package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import repro.graph.Bfs

/** The paper's light-weight query-dependent index (Algorithm 3), held on
  * the driver in the paper's own layout.
  *
  * Here `ds(v) = S(s, v | G − {t})` and `dt(v) = S(v, t | G − {s})`. X is
  * the vertices with `ds(v) + dt(v) <= k`, and an edge `(u, v)` is in the
  * index when
  *   - `u` and `v` are in X,
  *   - `ds(u) + dt(v) + 1 <= k`    (the H-table neighbor condition),
  *   - `u != t`                    (enumeration never expands past t),
  *   - `v != s`                    (s is never interior, Definition 2.1).
  *
  * `local` has the index edges with dt-sorted neighbors, so `I_t(v, b)` is
  * a prefix scan. Its vertices are exactly X: each vertex of X but `t` has
  * the first edge of a shortest path to `t`, and `t` the last edge of one
  * from `s`. `ds` and `dt` are indexed by `local`'s vertex numbers, so
  * `I(i)` (C_i) is the vertices with `ds <= i && dt <= k - i`.
  * [[Estimator]], [[LeftDeepEnum]] and [[JoinEnum]] run over this form.
  * `A` is the edge attribute of the Appendix E variants ([[Extensions]]),
  * `Unit` for the plain index.
  */
final case class LightIndex[A](
    query: HcQuery,
    buildMs: Double,
    local: Adjacency[A],
    ds: Array[Int],
    dt: Array[Int]) {

  def edgeCount: Long = local.edgeCount
  def vertexCount: Long = local.vertexCount

  /** Index memory in the sense of Table 7: the bytes of its arrays.
    * `local` has `ids` (8 per vertex), `offsets` (4 per vertex, plus 4) and
    * the slots' `dst` and `dt` (4 each); `ds` and `dt` have 4 per vertex. */
  def memoryBytes: Long = edgeCount * 8 + vertexCount * 20 + 4

  /** Nothing is cached on Spark: the index lives on the driver. */
  def unpersist(): Unit = ()
}

object LightIndex {

  /** Build the index for `q` over `graphEdges` (columns `src`, `dst`): at
    * most ⌈k/2⌉ Spark jobs (see [[collect]]). */
  def build(spark: SparkSession, graphEdges: DataFrame, q: HcQuery): LightIndex[Unit] =
    collect(graphEdges, q, Nil)(_ => ())

  /** Builds the index for `q` with one slot per distinct `(src, dst,
    * attr(row))`, where `row` is `(src, dst, attrs...)` of `graphEdges`.
    *
    * The two searches meet in the middle. The fused BFS ([[Bfs.search]]
    * with [[Bfs.sparkHop]]) runs only j = ⌊(k − 1)/2⌋ hops. Call `lbS(v)`
    * its `ds(v)` and `lbT(v)` its `dt(v)`, or j + 1 where it did not reach
    * `v`: both are lower bounds of the true distances. One more job over
    * the same edges returns the *candidate* edges `(u, v)` with `u != t`,
    * `v != s` and `lbS(u) + 1 + lbT(v) <= k`: ⌈k/2⌉ jobs in all. j is the
    * least radius at which an edge between two unreached vertices fails
    * that test (2(j + 1) + 1 > k), so it follows from k.
    *
    * The driver then finishes both searches over the candidates for k
    * hops ([[Bfs.driverHop]], the same stop sets), which is exact on X.
    * Take `u` with `ds(u) + dt(u) <= k` and an edge `(w, x)` on a shortest
    * s→u path: `dt(x) <= ds(u) − ds(x) + dt(u)`, so `ds(w) + 1 + dt(x) <=
    * k`, and the lower bounds pass too. Every such edge is a candidate, so
    * `ds(u)` is exact, and `dt(u)` likewise. With `u = t` (`dt(t) = 0`) this
    * gives `ds(t)`, and with `u = s` it gives `dt(s)`, both up to k hops.
    * Distances over a subgraph are never below the true ones, so no vertex
    * outside X gets `ds + dt <= k`. The index conditions are then checked
    * on the candidates and keep exactly the index edges.
    */
  private[core] def collect[A: Ordering](graphEdges: DataFrame, q: HcQuery,
                                         attrs: Seq[Column])(attr: Row => A): LightIndex[A] = {
    val t0 = System.nanoTime()
    val rows = graphEdges.select(col("src").cast("long") +: col("dst").cast("long") +: attrs: _*).rdd
    val j = (q.k - 1) / 2
    val (nearS, nearT) = Bfs.search(Bfs.sparkHop(rows.map(r => (r.getLong(0), r.getLong(1)))),
      Some(q.s), Some(q.t), j, sStop = Set(q.t), tStop = Set(q.s))
    val candidates = rows.mapPartitions(_.flatMap { r =>
      val (u, v) = (r.getLong(0), r.getLong(1))
      if (u != q.t && v != q.s && nearS.getOrElse(u, j + 1) + 1 + nearT.getOrElse(v, j + 1) <= q.k)
        Some((u, v, attr(r)))
      else None
    }).collect().toSeq
    val (ds, dt) = Bfs.search(Bfs.driverHop(candidates.map(c => (c._1, c._2))),
      Some(q.s), Some(q.t), q.k, sStop = Set(q.t), tStop = Set(q.s))
    def inX(v: Long): Boolean = ds.contains(v) && dt.contains(v) && ds(v) + dt(v) <= q.k
    val local = Adjacency(for ((u, v, a) <- candidates if inX(u) && inX(v) && ds(u) + 1 + dt(v) <= q.k)
      yield (u, v, dt(v), a))
    LightIndex(q, (System.nanoTime() - t0) / 1e6, local, local.ids.map(ds), local.ids.map(dt))
  }
}
