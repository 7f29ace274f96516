package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.graph.{Bfs, GraphGen}

/** The paper's light-weight query-dependent index (Algorithm 3).
  *
  * The paper stores, per vertex `v` with `v.s + v.t <= k`, its neighbors
  * sorted by distance-to-t, plus the partition table `X[i][j]`. The index
  * is built on Spark as a pruned **edge DataFrame** that carries both
  * endpoint distances as columns:
  *
  * {{{ edges(src, dst, srcDs, srcDt, dstDs, dstDt) }}}
  *
  * where `ds(v) = S(s, v | G − {t})` and `dt(v) = S(v, t | G − {s})`,
  * and every row satisfies
  *   - `srcDs + srcDt <= k`        (src in X),
  *   - `dstDs + dstDt <= k`        (dst in X),
  *   - `srcDs + dstDt + 1 <= k`    (the H-table neighbor condition),
  *   - `src != t`                  (enumeration never expands past t).
  *
  * The build collects both tables once into the paper's own layout:
  * `local` holds the edges with dt-sorted neighbors, so `I_t(v, b)` is a
  * prefix scan, and `dist` holds `(ds, dt)` per vertex, so `I(i)` (C_i) is
  * the vertices with `ds <= i && dt <= k - i`. [[Estimator]],
  * [[LeftDeepEnum]] and [[JoinEnum]] run over that form on the driver.
  *
  * Both distance BFS runs are bounded by `k` (farther vertices cannot be in
  * any result, Proposition 4.3), which is also what keeps construction cheap.
  */
final case class LightIndex(
    query: HcQuery,
    edges: DataFrame,
    vertices: DataFrame, // (v, ds, dt) restricted to ds + dt <= k
    buildMs: Double,
    edgeCount: Long,
    vertexCount: Long,
    local: Adjacency[Unit],
    dist: Map[Long, (Int, Int)]) { // v -> (ds, dt), the vertex table

  /** `ds` and `dt` of each vertex number of `local`. */
  def localDistances: (Array[Int], Array[Int]) = local.ids.map(dist).unzip

  /** Index memory in the sense of Table 7: materialized cells x 8 bytes
    * (6 longs per distinct indexed edge + 3 per vertex-stat row). */
  def memoryBytes: Long = edgeCount * 6 * 8 + vertexCount * 3 * 8

  def unpersist(): Unit = {
    edges.unpersist(blocking = false)
    vertices.unpersist(blocking = false)
  }
}

object LightIndex {

  /** Build the index for `q` over `graphEdges` (columns `src`, `dst`). */
  def build(spark: SparkSession, graphEdges: DataFrame, q: HcQuery): LightIndex = {
    val t0 = System.nanoTime()
    // ds(v) = S(s, v | G − {t}): forward BFS from s, never expanding through t.
    val ds = Bfs.distances(spark, graphEdges, q.s, q.k, noExpand = Set(q.t))
      .withColumnRenamed("dist", "ds")
    // dt(v) = S(v, t | G − {s}): BFS from t on the reversed graph, never
    // expanding through s.
    val dt = Bfs.distances(spark, GraphGen.reverse(graphEdges), q.t, q.k, noExpand = Set(q.s))
      .withColumnRenamed("dist", "dt")

    val verts = ds.join(dt, "v")
      .where(col("ds") + col("dt") <= q.k)
      .persist(StorageLevel.MEMORY_AND_DISK)
    val dist = verts.collect().map(r => r.getLong(0) -> (r.getInt(1), r.getInt(2))).toMap

    val srcV = verts.select(col("v").as("src"), col("ds").as("srcDs"), col("dt").as("srcDt"))
    val dstV = verts.select(col("v").as("dst"), col("ds").as("dstDs"), col("dt").as("dstDt"))
    val idxEdges = graphEdges
      .join(srcV, "src")
      .join(dstV, "dst")
      // src != t: enumeration stops at t. dst != s: s is never interior
      // (Definition 2.1; mirrors R_i ⊆ E(G − {s}) in the join model).
      .where(col("srcDs") + col("dstDt") + 1 <= q.k &&
             col("src") =!= q.t && col("dst") =!= q.s)
      .select("src", "dst", "srcDs", "srcDt", "dstDs", "dstDt")
      .persist(StorageLevel.MEMORY_AND_DISK)
    val local = Adjacency(idxEdges.collect().toSeq
      .map(r => (r.getLong(0), r.getLong(1), r.getInt(5), ())))

    val ms = (System.nanoTime() - t0) / 1e6
    LightIndex(q, idxEdges, verts, ms, local.edgeCount, dist.size, local, dist)
  }
}
