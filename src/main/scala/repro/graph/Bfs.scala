package repro.graph

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Bounded breadth-first-search distances as an iterative frontier-join
  * dataflow.
  *
  * `distances(edges, source, maxHops, noExpand)` returns a DataFrame
  * `(v: Long, dist: Int)` with the length of the shortest path from `source`
  * to every vertex reachable within `maxHops` hops. Vertices in `noExpand`
  * may be *reached* (they get a distance) but are never *expanded through* —
  * this realizes the paper's `S(s, v | G − {t})` / `S(v, t | G − {s})`
  * semantics: the excluded vertex cannot be an interior vertex of the
  * shortest path, but can be its endpoint.
  *
  * Distances *to* a target are obtained by passing `GraphGen.reverse(edges)`.
  *
  * Each hop is one join of the current frontier against the edge DataFrame
  * (the distributed part — Pregel-style); the visited set and frontier ids
  * live on the driver, so every iteration submits a fresh, constant-depth
  * plan. (A previous version threaded a growing union-of-caches lineage
  * through the loop; Catalyst replanning made iterations superlinear.)
  */
object Bfs {

  private val outSchema = StructType(Seq(
    StructField("v", LongType, nullable = false),
    StructField("dist", IntegerType, nullable = false)))

  def distances(spark: SparkSession, edges: DataFrame, source: Long,
                maxHops: Int, noExpand: Set[Long] = Set.empty): DataFrame = {
    val visited = scala.collection.mutable.Map[Long, Int](source -> 0)
    var frontier: Seq[Long] = Seq(source)
    var i = 1
    while (frontier.nonEmpty && i <= maxHops) {
      val expandable = frontier.filterNot(noExpand)
      val next =
        if (expandable.isEmpty) Seq.empty[Long]
        else {
          val fDf = spark.createDataFrame(
            spark.sparkContext.parallelize(expandable.map(Row(_)), 4),
            StructType(Seq(StructField("v", LongType, nullable = false))))
          fDf.join(edges, col("v") === col("src"))
            .select("dst").distinct()
            .collect().map(_.getLong(0)).toSeq
            .filterNot(visited.contains)
        }
      next.foreach(v => visited(v) = i)
      frontier = next
      i += 1
    }
    spark.createDataFrame(
      spark.sparkContext.parallelize(
        visited.toSeq.map { case (v, d) => Row(v, d) }, 4),
      outSchema)
  }

  /** Driver-side map convenience (query generation, tests). */
  def distanceMap(spark: SparkSession, edges: DataFrame, source: Long,
                  maxHops: Int, noExpand: Set[Long] = Set.empty): Map[Long, Int] =
    distances(spark, edges, source, maxHops, noExpand)
      .collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
}
