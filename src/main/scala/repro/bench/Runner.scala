package repro.bench

import org.apache.spark.sql.DataFrame
import repro.baseline.{BcDfs, BcJoin}
import repro.core.{EnumConfig, HcQuery, PathEnum, PathEnumResult}

/** Runs one of the five compared algorithms on one query, by name. */
object Runner {

  val algos: Seq[String] = Seq("BC-DFS", "BC-JOIN", "IDX-DFS", "IDX-JOIN", "PathEnum")

  def run(edges: DataFrame, algo: String, q: HcQuery, cfg: EnumConfig): PathEnumResult = algo match {
    case "BC-DFS"   => BcDfs.run(edges.sparkSession, edges, q, cfg)
    case "BC-JOIN"  => BcJoin.run(edges, q, cfg)
    case "IDX-DFS"  => PathEnum.idxDfs(edges, q, cfg)
    case "IDX-JOIN" => PathEnum.idxJoin(edges, q, cfg)
    case "PathEnum" => PathEnum.run(edges.sparkSession, edges, q, cfg)
    case other      => sys.error(s"unknown algorithm $other")
  }
}
