package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core.{EnumConfig, HcQuery}
import scala.collection.mutable

/** Computes and formats the evaluation tables (Tables 2-7). Shared by the
  * bench suites (`sbt "bench/test"`) and the spark-submit jobs in `jobs/`.
  *
  * Protocol scaling versus the paper (documented in DESIGN.md): the
  * per-query budget is `EnumConfig`'s 10 s instead of 120 s, and the
  * Table 4/5 buckets scale accordingly (<60 s → < budget/2, >120 s → timed
  * out). Query counts default to 2 per graph and 3 per sweep point (paper:
  * 1000) — means over a seeded sample.
  */
object BenchTables {

  private def sci(d: Double): String = if (d.isNaN) "n/a" else f"$d%.2e"
  private def mean(xs: Seq[Double]): Double = if (xs.isEmpty) Double.NaN else xs.sum / xs.size

  val cfg: EnumConfig = EnumConfig()

  // ---------------------------------------------------------------- Table 2
  def table2(spark: SparkSession): String = {
    val sb = new StringBuilder
    sb ++= "Table 2: Properties of synthetic analog graphs (paper: real graphs, ~100x larger).\n"
    sb ++= f"${"Name"}%-6s ${"|V|"}%10s ${"|E|"}%10s ${"d_avg"}%8s  Type\n"
    for (s <- GraphSuite.specs) {
      val e = GraphSuite.edges(spark, s).count()
      sb ++= f"${s.name}%-6s ${s.vertices}%10d ${e}%10d ${e.toDouble / s.vertices}%8.1f  ${s.kind}\n"
    }
    sb.toString
  }

  // ---------------------------------------------------------------- Table 3
  final case class T3Row(graph: String, qt: Map[String, Double], star: Map[String, Boolean],
                         tp: Map[String, Double], rt: Map[String, Double],
                         anyTimeout: Boolean, resultsConsistent: Boolean)

  def table3Rows(spark: SparkSession, k: Int = 6,
                 nQueries: Int = 2): Seq[T3Row] = {
    for (spec <- GraphSuite.specs if spec.inTable3) yield {
      val edges = GraphSuite.edges(spark, spec)
      val qs = QueryGen.queries(spark, edges, nQueries, seed = 1000 + spec.seed)
      Console.err.println(s"[table3] ${spec.name}: ${qs.size} queries generated")
      val byAlgo = Runner.algos.map { a =>
        a -> qs.map { case (s, t) =>
          val m = Runner.run(spark, spec.name, edges, a, HcQuery(s, t, k), cfg)
          Console.err.println(f"[table3] ${spec.name}/$a q($s,$t): ${m.queryTimeMs}%.0f ms, " +
            s"${m.results} results${if (m.timedOut) " (timeout)" else ""}")
          m
        }
      }.toMap
      // Queries where no algorithm was killed must agree on result counts.
      val consistent = qs.indices.forall { i =>
        val per = Runner.algos.map(a => byAlgo(a)(i))
        per.exists(_.timedOut) || per.map(_.results).distinct.size == 1
      }
      T3Row(spec.name,
        byAlgo.map { case (a, ms) => a -> mean(ms.map(_.queryTimeMs)) },
        byAlgo.map { case (a, ms) => a -> (ms.count(_.timedOut).toDouble / ms.size > 0.2) },
        byAlgo.map { case (a, ms) => a -> mean(ms.map(_.throughput)) },
        byAlgo.collect { case (a, ms) if a == "BC-DFS" || a == "IDX-DFS" =>
          a -> mean(ms.flatMap(m => m.responseMs.orElse(Some(m.queryTimeMs))))
        },
        anyTimeout = byAlgo.values.exists(_.exists(_.timedOut)),
        resultsConsistent = consistent)
    }
  }

  def table3(spark: SparkSession, k: Int = 6,
             nQueries: Int = 2): String =
    formatTable3(table3Rows(spark, k, nQueries), k, nQueries)

  def formatTable3(rows: Seq[T3Row], k: Int = 6,
                   nQueries: Int = 2): String = {
    val sb = new StringBuilder
    sb ++= s"Table 3: Overall comparison, k=$k, $nQueries queries/graph, budget ${cfg.timeBudgetMs} ms.\n"
    sb ++= s"(* = timed out on >20% of queries)\n"
    val a = Runner.algos
    sb ++= f"${"Graph"}%-6s| ${"Query Time (ms)"}%-55s| ${"Throughput (res/s)"}%-55s| Response (ms)\n"
    sb ++= f"${""}%-6s| ${a.map(x => f"$x%-10s").mkString(" ")}%-55s| ${a.map(x => f"$x%-10s").mkString(" ")}%-55s| ${"BC-DFS"}%-10s ${"IDX-DFS"}%-10s\n"
    for (r <- rows) {
      val qts = a.map(x => f"${sci(r.qt(x)) + (if (r.star(x)) "*" else "")}%-10s").mkString(" ")
      val tps = a.map(x => f"${sci(r.tp(x))}%-10s").mkString(" ")
      val rts = f"${sci(r.rt("BC-DFS"))}%-10s ${sci(r.rt("IDX-DFS"))}%-10s"
      sb ++= f"${r.graph}%-6s| $qts%-55s| $tps%-55s| $rts\n"
    }
    sb.toString
  }

  // ------------------------------------------------------- Tables 4/5/6/7 sweep
  /** One shared ep/gg sweep powers Tables 4, 5, 6 and 7. Cached per JVM. */
  private val sweepCache = mutable.Map.empty[String, Seq[QueryMetrics]]

  def sweep(spark: SparkSession, graphs: Seq[String] = Seq("ep", "gg"),
            ks: Seq[Int] = 3 to 8,
            algos: Seq[String] = Seq("BC-DFS", "IDX-DFS", "IDX-JOIN"),
            nQueries: Int = 3): Seq[QueryMetrics] = synchronized {
    val key = s"${graphs.mkString(",")}|${ks.mkString(",")}|${algos.mkString(",")}|$nQueries"
    sweepCache.getOrElseUpdate(key, {
      for {
        g <- graphs
        spec = GraphSuite.spec(g)
        edges = GraphSuite.edges(spark, spec)
        qs = QueryGen.queries(spark, edges, nQueries, seed = 2000 + spec.seed)
        k <- ks
        algo <- algos
        (s, t) <- qs
      } yield {
        val m = Runner.run(spark, g, edges, algo, HcQuery(s, t, k), cfg)
        Console.err.println(f"[sweep] $g/$algo k=$k q($s,$t): ${m.queryTimeMs}%.0f ms, " +
          s"${m.results} results${if (m.timedOut) " (timeout)" else ""}")
        m
      }
    })
  }

  // ---------------------------------------------------------------- Table 4
  def table4(spark: SparkSession): String = {
    val ms = sweep(spark).filter(m => m.algo == "BC-DFS" || m.algo == "IDX-DFS")
    val budget = cfg.timeBudgetMs.toDouble
    val sb = new StringBuilder
    sb ++= s"Table 4: Query time distribution on ep and gg (paper buckets <60s/>120s scale to\n"
    sb ++= f"<${budget / 2 / 1000}%.1fs (half budget) / timed-out at ${budget / 1000}%.1fs).\n"
    sb ++= f"${"k"}%-3s| ${"ep BC-DFS <hb"}%14s ${">to"}%5s | ${"ep IDX-DFS <hb"}%15s ${">to"}%5s | ${"gg BC-DFS <hb"}%14s ${">to"}%5s | ${"gg IDX-DFS <hb"}%15s ${">to"}%5s\n"
    for (k <- 3 to 8) {
      def frac(g: String, a: String): (Double, Double) = {
        val xs = ms.filter(m => m.graph == g && m.algo == a && m.k == k)
        if (xs.isEmpty) (Double.NaN, Double.NaN)
        // Buckets are disjoint, as in the paper: "completed fast" excludes
        // killed/truncated runs even when truncation made them finish early.
        else (xs.count(m => m.queryTimeMs < budget / 2 && !m.timedOut).toDouble / xs.size,
              xs.count(_.timedOut).toDouble / xs.size)
      }
      val (eb1, eb2) = frac("ep", "BC-DFS"); val (ei1, ei2) = frac("ep", "IDX-DFS")
      val (gb1, gb2) = frac("gg", "BC-DFS"); val (gi1, gi2) = frac("gg", "IDX-DFS")
      sb ++= f"$k%-3d| $eb1%14.3f $eb2%5.3f | $ei1%15.3f $ei2%5.3f | $gb1%14.3f $gb2%5.3f | $gi1%15.3f $gi2%5.3f\n"
    }
    sb.toString
  }

  // ---------------------------------------------------------------- Table 5
  def table5(spark: SparkSession): String = {
    val budget = cfg.timeBudgetMs.toDouble
    val ms = sweep(spark).filter(m =>
      m.graph == "ep" && m.k == 8 && (m.algo == "BC-DFS" || m.algo == "IDX-DFS"))
    val sb = new StringBuilder
    sb ++= s"Table 5: Queries with different query time on ep, k=8\n"
    sb ++= f"(short = < ${budget / 2 / 1000}%.1fs, long = timed out; paper: <60s / >120s).\n"
    sb ++= f"${"Method"}%-8s| ${"Tput short"}%12s ${"Tput long"}%12s | ${"Resp short(ms)"}%15s ${"Resp long(ms)"}%14s\n"
    for (a <- Seq("BC-DFS", "IDX-DFS")) {
      val xs = ms.filter(_.algo == a)
      val short = xs.filter(m => m.queryTimeMs < budget / 2 && !m.timedOut)
      val long = xs.filter(_.timedOut)
      def tput(g: Seq[QueryMetrics]) = mean(g.map(_.throughput))
      def resp(g: Seq[QueryMetrics]) = mean(g.flatMap(m => m.responseMs.orElse(Some(m.queryTimeMs))))
      sb ++= f"$a%-8s| ${sci(tput(short))}%12s ${sci(tput(long))}%12s | ${sci(resp(short))}%15s ${sci(resp(long))}%14s\n"
    }
    sb.toString
  }

  // ---------------------------------------------------------------- Table 6
  def table6(spark: SparkSession): String = {
    val ms = sweep(spark).filter(_.algo == "IDX-DFS")
    val sb = new StringBuilder
    sb ++= "Table 6: Average and maximum #results on ep and gg (IDX-DFS;\n"
    sb ++= "* = some query hit the budget, count is a lower bound — paper's star).\n"
    sb ++= f"${"graph"}%-6s ${"stat"}%-5s" + (3 to 8).map(k => f"${"k=" + k}%12s").mkString + "\n"
    for (g <- Seq("ep", "gg"); stat <- Seq("avg", "max")) {
      val cells = (3 to 8).map { k =>
        val xs = ms.filter(m => m.graph == g && m.k == k)
        if (xs.isEmpty) "n/a"
        else {
          val v = if (stat == "avg") mean(xs.map(_.results.toDouble)) else xs.map(_.results).max.toDouble
          sci(v) + (if (xs.exists(_.timedOut)) "*" else "")
        }
      }
      sb ++= f"$g%-6s $stat%-5s" + cells.map(c => f"$c%12s").mkString + "\n"
    }
    sb.toString
  }

  // ---------------------------------------------------------------- Table 7
  def table7(spark: SparkSession): String = {
    val ms = sweep(spark).filter(_.algo == "IDX-JOIN")
    val sb = new StringBuilder
    sb ++= "Table 7: Maximum memory (MB) of the index and of IDX-JOIN partial results\n"
    sb ++= "(materialized cells x 8 bytes; paper measures process memory).\n"
    sb ++= f"${"part"}%-16s ${"graph"}%-6s" + (3 to 8).map(k => f"${"k=" + k}%10s").mkString + "\n"
    for ((part, get) <- Seq[(String, QueryMetrics => Double)](
           ("Index", m => m.indexBytes / 1e6),
           ("Partial Results", m => m.peakPartialCells * 8 / 1e6));
         g <- Seq("ep", "gg")) {
      val cells = (3 to 8).map { k =>
        val xs = ms.filter(m => m.graph == g && m.k == k)
        if (xs.isEmpty) "n/a" else f"${xs.map(get).max}%.2f"
      }
      sb ++= f"$part%-16s $g%-6s" + cells.map(c => f"$c%10s").mkString + "\n"
    }
    sb.toString
  }
}
