package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.BenchTables

/** The one Spark session recipe: the spark-submit entrypoints, the tests
  * and the benchmark all build their session here. `SPARK_MASTER` (default
  * `local[*]`) is the deployment setting.
  */
object JobSession {
  def session(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      // The query path runs no shuffle. The graph generators' `distinct`
      // and `orderBy` do, and on graphs this small Spark's default of 200
      // partitions costs more than it spreads: `TablesJob 2` took 56-58 s
      // with it and 38-47 s with 8 (4 cores).
      .config("spark.sql.shuffle.partitions", 8)
      // Set before the context starts, so its start-up INFO lines are not
      // printed either.
      .config("spark.log.level", "WARN")
      // Tasks are broadcast in blocks of this size: the 4 MB default allocates 4 MB per job.
      .config("spark.broadcast.blockSize", "64k")
      .getOrCreate()
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
      case Array("3") => BenchTables.table3
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
