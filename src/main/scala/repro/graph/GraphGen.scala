package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic directed-graph generators.
  *
  * The paper evaluates on 15 real graphs (SNAP / networkrepository). Offline,
  * we synthesize scaled-down analogs with zipf-skewed out- and in-degree
  * distributions: `src` and `dst` vertex ranks are drawn independently from a
  * zipf distribution and the in-degree hub identities are rotated so out-hubs
  * and in-hubs only partially coincide (as in real social/web graphs).
  *
  * Generators are deterministic in `(params, seed)` so tests, the DuckDB
  * oracle and benches all see identical edges. Vertex ids are `1..nVertices`.
  */
object GraphGen {

  /** Skewed rank in `[1, n]`: `floor(n * u^beta) + 1`. The rank-x draw
    * probability density is ~ x^(1/beta - 1), so low ranks are hubs — e.g.
    * beta = 2 gives the top vertex ~ (1/n)^(1/2) of all endpoint draws, a
    * heavy-but-bounded skew that survives `distinct()` (a true zipf inverse
    * CDF collapses nearly all draws onto a handful of vertices and the
    * de-duplicated edge set implodes).
    */
  private def skewRank(u: org.apache.spark.sql.Column, n: Long, beta: Double) =
    least(lit(n), greatest(lit(1L),
      (floor(pow(u, beta) * n) + 1).cast(LongType)))

  /** Skewed digraph: both endpoints drawn with the same hub skew, so in-
    * and out-hubs coincide and a dense hub core forms — the property of
    * real social/web graphs that makes the paper's top-degree query sets
    * path-heavy (hub-to-hub hop-bounded search spaces explode). Self-loops
    * dropped, duplicates collapsed. Draws are oversampled 1.6x and then
    * trimmed back to `nEdgesTarget` by a seeded hash order, so the realized
    * edge count lands close to the target (report the actual `count()`).
    *
    * @param alpha skew exponent beta (1 = uniform; 2 ~ web/social skew)
    */
  def powerLaw(spark: SparkSession, nVertices: Long, nEdgesTarget: Long,
               alpha: Double = 2.0, seed: Long = 7): DataFrame = {
    // One partition: Spark seeds `rand` per partition, so the draws would
    // otherwise depend on the session's default parallelism.
    spark.range(0, (nEdgesTarget * 1.6).toLong, 1, 1)
      .select(
        skewRank(rand(seed), nVertices, alpha).as("src"),
        skewRank(rand(seed + 1), nVertices, alpha).as("dst"))
      .where(col("src") =!= col("dst"))
      .distinct()
      .withColumn("h", hash(col("src"), col("dst"), lit(seed)))
      .orderBy("h")
      .limit(nEdgesTarget.toInt)
      .drop("h")
  }

  /** Reverse every edge (the paper's G^r). */
  def reverse(edges: DataFrame): DataFrame =
    edges.select(col("dst").as("src"), col("src").as("dst"))

  /** Build an edge DataFrame from an explicit list (tests, examples). */
  def fromPairs(spark: SparkSession, pairs: Seq[(Long, Long)]): DataFrame = {
    import spark.implicits._
    pairs.toDF("src", "dst")
  }
}
