package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baseline.{BcDfs, BcJoin}
import repro.core.{EnumConfig, HcQuery, PathEnum, PathEnumResult}

/** Metrics for one (algorithm, query) execution — the raw material of every
  * evaluation table. Times in ms, throughput in results/second.
  */
final case class QueryMetrics(
    algo: String,
    graph: String,
    k: Int,
    s: Long,
    t: Long,
    queryTimeMs: Double,
    results: Long,
    throughput: Double,
    responseMs: Option[Double],
    timedOut: Boolean,
    indexEdges: Long,
    indexBytes: Long,
    peakPartialCells: Long,
    plan: String)

/** Executes one algorithm on one query and harvests metrics. */
object Runner {

  val algos: Seq[String] = Seq("BC-DFS", "BC-JOIN", "IDX-DFS", "IDX-JOIN", "PathEnum")

  def run(spark: SparkSession, graphName: String, edges: DataFrame, algo: String,
          q: HcQuery, cfg: EnumConfig): QueryMetrics = {
    val r: PathEnumResult = algo match {
      case "BC-DFS"   => BcDfs.run(spark, edges, q, cfg)
      case "BC-JOIN"  => BcJoin.run(spark, edges, q, cfg)
      case "IDX-DFS"  => PathEnum.idxDfs(spark, edges, q, cfg)
      case "IDX-JOIN" => PathEnum.idxJoin(spark, edges, q, cfg)
      case "PathEnum" => PathEnum.run(spark, edges, q, cfg)
      case other      => sys.error(s"unknown algorithm $other")
    }
    QueryMetrics(algo, graphName, q.k, q.s, q.t,
      r.queryTimeMs, r.enum.results,
      // Throughput over the full query time (prep included), as in the paper.
      if (r.queryTimeMs <= 0) 0.0 else r.enum.results * 1000.0 / r.queryTimeMs,
      // Response time includes preprocessing (elapsed from query begin).
      r.enum.responseMs.map(_ + r.indexBuildMs + r.optimizeMs),
      r.enum.timedOut, r.indexEdges, r.indexBytes, r.enum.peakPartialCells,
      r.planInfo.plan)
  }
}
