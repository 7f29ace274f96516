package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import repro.graph.Bfs

/** The paper's light-weight query-dependent index (Algorithm 3).
  *
  * The paper stores, per vertex `v` with `v.s + v.t <= k`, its neighbors
  * sorted by distance-to-t, plus the partition table `X[i][j]`. Here
  * `ds(v) = S(s, v | G − {t})` and `dt(v) = S(v, t | G − {s})`, and an
  * edge `(u, v)` is in the index when
  *   - `ds(u) + dt(u) <= k`        (u in X),
  *   - `ds(v) + dt(v) <= k`        (v in X),
  *   - `ds(u) + dt(v) + 1 <= k`    (the H-table neighbor condition),
  *   - `u != t`                    (enumeration never expands past t),
  *   - `v != s`                    (s is never interior, Definition 2.1).
  *
  * The index is held in the paper's own layout on the driver: `local` has
  * the edges with dt-sorted neighbors, so `I_t(v, b)` is a prefix scan,
  * and `dist` holds `(ds, dt)` per vertex of X, so `I(i)` (C_i) is the
  * vertices with `ds <= i && dt <= k - i`. [[Estimator]], [[LeftDeepEnum]]
  * and [[JoinEnum]] run over that form. `edges` gives the same index as a
  * DataFrame, built on demand from it.
  */
final case class LightIndex(
    spark: SparkSession,
    query: HcQuery,
    buildMs: Double,
    local: Adjacency[Unit],
    dist: Map[Long, (Int, Int)]) { // v -> (ds, dt), the vertex table

  def edgeCount: Long = local.edgeCount
  def vertexCount: Long = dist.size

  /** `ds` and `dt` of each vertex number of `local`. */
  def localDistances: (Array[Int], Array[Int]) = local.ids.map(dist).unzip

  /** Index memory in the sense of Table 7: materialized cells x 8 bytes
    * (6 longs per distinct indexed edge + 3 per vertex-stat row). */
  def memoryBytes: Long = edgeCount * 6 * 8 + vertexCount * 3 * 8

  /** One row `(src, dst, srcDs, srcDt, dstDs, dstDt)` per distinct edge. */
  def edges: DataFrame = {
    val g = local
    val rows = for (v <- g.ids.indices; e <- g.first(v) until g.end(v)) yield {
      val (u, w) = (g.ids(v), g.ids(g.dst(e)))
      (u, w, dist(u)._1, dist(u)._2, dist(w)._1, dist(w)._2)
    }
    spark.createDataFrame(rows).toDF("src", "dst", "srcDs", "srcDt", "dstDs", "dstDt")
  }

  /** Nothing is cached on Spark: the index lives on the driver. */
  def unpersist(): Unit = ()
}

object LightIndex {

  /** Build the index for `q` over `graphEdges` (columns `src`, `dst`): at
    * most ⌈k/2⌉ Spark jobs (see [[collect]]). */
  def build(spark: SparkSession, graphEdges: DataFrame, q: HcQuery): LightIndex =
    collect(spark, graphEdges, q, Nil)(_ => ())._1

  /** Builds the index for `q` and collects its edges `(src, dst, dt(dst),
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
    * The driver then finishes both searches over the candidates
    * ([[Bfs.driverHop]], k − 1 hops, the same stop sets). That is exact on
    * X. Take `u` with `ds(u) + dt(u) <= k` and an edge `(w, x)` on a
    * shortest s→u path: `dt(x) <= ds(u) − ds(x) + dt(u)`, so `ds(w) + 1 +
    * dt(x) <= k`, and the lower bounds pass too. Every such edge is a
    * candidate, so `ds(u)` is exact, and `dt(u)` likewise. Distances over a
    * subgraph are never below the true ones, so no vertex outside X gets
    * `ds + dt <= k`.
    *
    * k − 1 hops suffice: a vertex other than `t` with `ds = k` has
    * `dt >= 1`, so it is not in X, and likewise a vertex other than `s`
    * with `dt = k`. The conditions above are then checked on the candidates
    * and keep exactly the index edges. `s` and `t` skip the X check there,
    * because the edge condition implies it; `ds(t)` is the least
    * `ds(u) + 1` over the index edges `(u, t)`, and `dt(s)` the least
    * `dt(v) + 1` over `(s, v)`.
    */
  private[core] def collect[A](spark: SparkSession, graphEdges: DataFrame, q: HcQuery,
                               attrs: Seq[Column])(attr: Row => A)
                              : (LightIndex, Seq[(Long, Long, Int, A)]) = {
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
      Some(q.s), Some(q.t), q.k - 1, sStop = Set(q.t), tStop = Set(q.s))
    val x = for ((v, a) <- ds; b <- dt.get(v) if a + b <= q.k) yield v -> (a, b)
    // ds of the admissible sources and dt of the admissible targets.
    val from = x.collect { case (v, (a, _)) if v != q.t => v -> a } + (q.s -> 0)
    val to = x.collect { case (v, (_, b)) if v != q.s => v -> b } + (q.t -> 0)
    val edges = for ((u, v, w) <- candidates; a <- from.get(u); b <- to.get(v) if a + b + 1 <= q.k)
      yield (u, v, b, w)
    val dsT = edges.collect { case (u, q.t, _, _) => from(u) + 1 }.minOption
    val dtS = edges.collect { case (q.s, _, b, _) => b + 1 }.minOption
    val dist = x ++ dsT.map(q.t -> (_, 0)) ++ dtS.map(q.s -> (0, _))
    val local = Adjacency(edges.map { case (u, v, b, _) => (u, v, b, ()) })
    (LightIndex(spark, q, (System.nanoTime() - t0) / 1e6, local, dist), edges)
  }
}
