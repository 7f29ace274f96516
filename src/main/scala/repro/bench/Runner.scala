package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baseline.{BcDfs, BcJoin}
import repro.core.{EnumConfig, HcQuery, PathEnum, PathEnumResult}

/** Runs one of the five compared algorithms on one query, by name. */
object Runner {

  val algos: Seq[String] = Seq("BC-DFS", "BC-JOIN", "IDX-DFS", "IDX-JOIN", "PathEnum")

  def run(spark: SparkSession, edges: DataFrame, algo: String, q: HcQuery,
          cfg: EnumConfig): PathEnumResult = algo match {
    case "BC-DFS"   => BcDfs.run(spark, edges, q, cfg)
    case "BC-JOIN"  => BcJoin.run(spark, edges, q, cfg)
    case "IDX-DFS"  => PathEnum.idxDfs(spark, edges, q, cfg)
    case "IDX-JOIN" => PathEnum.idxJoin(spark, edges, q, cfg)
    case "PathEnum" => PathEnum.run(spark, edges, q, cfg)
    case other      => sys.error(s"unknown algorithm $other")
  }
}
