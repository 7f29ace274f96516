package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.BenchTables

/** Shared session bootstrap for the spark-submit entrypoints. */
object JobSession {
  def session(name: String): SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions",
        sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "8"))
      .config("spark.sql.adaptive.coalescePartitions.enabled", "false")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}

/** Evaluation tables 2-7, one per run:
  * `spark-submit --class repro.jobs.TablesJob <jar> <n>` with `n` in 2..7
  * (2 datasets, 3 overall comparison, 4 query-time distribution, 5 short
  * vs long queries, 6 result counts, 7 index and partial-result memory).
  */
object TablesJob {
  def main(args: Array[String]): Unit = {
    val table: SparkSession => String = args match {
      case Array("2") => BenchTables.table2
      case Array("3") => BenchTables.table3(_)
      case Array("4") => BenchTables.table4
      case Array("5") => BenchTables.table5
      case Array("6") => BenchTables.table6
      case Array("7") => BenchTables.table7
      case _ =>
        System.err.println("usage: TablesJob <n>, with n in 2..7")
        sys.exit(2)
    }
    val spark = JobSession.session(s"pathenum-table${args(0)}")
    try println(table(spark)) finally spark.stop()
  }
}
