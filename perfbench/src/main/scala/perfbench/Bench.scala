package perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.databind.node.{ArrayNode, ObjectNode}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.baseline.BcDfs
import repro.core._
import repro.graph.{Bfs, GraphGen}
import repro.jobs.JobSession
import scala.collection.mutable.ListBuffer

/** A candidate query, `id` in draw order, with its exact result count (or
  * a lower bound equal to `Bench.referenceLimit` when the count reaches it). */
final case class Query(id: Int, q: HcQuery, exact: Long)

/** One entry-point call of the untraced run: wall time, CPU time, heap
  * allocated (see `Measured`) and Spark work. */
final case class Sample(engine: String, ms: Double, cpuMs: Double, allocMb: Double, driverAllocMb: Double,
                        work: SparkWork,
                        result: Option[PathEnumResult], error: Option[String]) {
  def ok: Boolean = error.isEmpty
  def results: Long = result.fold(0L)(_.enum.results)
  def truncated: Boolean = result.exists(_.enum.timedOut)
  /** Time to the first 1000 results from the start of the call: the
    * program's enumeration response time plus prep and optimise time, or
    * the whole call when the plan emits no early results. */
  def responseMs: Double =
    result.flatMap(r => r.enum.responseMs.map(_ + r.indexBuildMs + r.optimizeMs)).getOrElse(ms)
}

/** One call of the traced run. `parent` is the span id of the round's
  * query span, or -1 for a query span and for the untraced `PathEnum.run`. */
final case class Span(id: Int, parent: Int, round: Int, name: String,
                      startMs: Double, endMs: Double, work: SparkWork) {
  def ms: Double = endMs - startMs
}

/** A named metric value with its unit and sample count. */
final case class Metric(name: String, value: Double, unit: String, n: Int)

/** The benchmark: one workload, closed loop, one client, one query at a time.
  *
  * `--trace 0` calls `PathEnum.run` and `BcDfs.run`, the paper's headline
  * pair, and reports the end-to-end metrics; `--trace 1` calls each
  * module's public functions one at a time, in the order the five entry
  * points use them, and reports the per-layer metrics. The last line of
  * stdout is the JSON result.
  */
object Bench {

  /** The entry points of the untraced run. IDX-DFS, IDX-JOIN and BC-JOIN
    * are compositions of the modules the traced run times one by one; a
    * round of all five takes longer than a run can afford (README). */
  val engines: Seq[(String, (SparkSession, DataFrame, HcQuery, EnumConfig) => PathEnumResult)] = Seq(
    "PathEnum" -> ((s, g, q, c) => PathEnum.run(s, g, q, c)),
    "BC-DFS" -> ((s, g, q, c) => BcDfs.run(s, g, q, c)),
  )

  val cfg: EnumConfig = Workloads.config

  val mapper = new ObjectMapper()

  /** An entry point returns at most `k x cap` results (a capped level per
    * hop), so counting up to one more than that decides every check. */
  def referenceLimit(k: Int): Long = k.toLong * cfg.maxLevelRows + 1

  /** Empty if `r` is consistent with the exact count, else the violation:
    * an untruncated run must equal it, a truncated one must be in (0, exact]. */
  def check(r: PathEnumResult, exact: Long): Option[String] = {
    val n = r.enum.results
    if (r.enum.timedOut) { if (n > 0 && n <= exact) None else Some(s"truncated run returned $n, exact $exact") }
    else if (n == exact) None
    else Some(s"returned $n, exact $exact")
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Puts `d`, or null when it is not finite (JSON has no NaN). */
  def putNum(o: ObjectNode, key: String, d: Double): ObjectNode =
    if (d.isNaN || d.isInfinite) o.putNull(key) else o.put(key, d)

  private def now(): Double = System.nanoTime() / 1e6

  final case class Options(workload: String, seed: Long, seconds: Int, trace: Boolean,
                           report: Option[String], commit: String)

  def parse(args: Array[String]): Options = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Options(need("workload"), need("seed").toLong, need("seconds").toInt,
      need("trace") match { case "0" => false; case "1" => true; case v => throw new IllegalArgumentException(s"--trace $v") },
      m.get("report"), m.getOrElse("commit", "unknown"))
  }

  /** Inputs of one run: the persisted edge DataFrame and the query. */
  final case class Prepared(graph: Graph, edges: DataFrame, query: Query, candidates: Seq[Query])

  /** Generate the graph and candidate endpoints, and hand the program a
    * persisted `(src, dst)` DataFrame. */
  def generate(spark: SparkSession, w: Workload, seed: Long): (Graph, Seq[(Int, Int)], DataFrame) = {
    val g = Inputs.graph(w.graph, seed)
    val pairs = Inputs.endpoints(g, Workloads.candidates, seed + 1)
    import spark.implicits._
    val df = g.src.indices.map(i => (g.src(i).toLong, g.dst(i).toLong)).toDF("src", "dst")
      .persist(StorageLevel.MEMORY_AND_DISK)
    df.count()
    (g, pairs, df)
  }

  /** Exact counts of the candidates; the workload's query is the one
    * nearest the target count (ties broken by draw order). Every call of a
    * run is on this query, so what a run reports does not depend on how
    * many calls fit in its window. */
  def reference(g: Graph, pairs: Seq[(Int, Int)], w: Workload): (Query, Seq[Query]) = {
    val cands = pairs.zipWithIndex.map { case ((s, t), i) =>
      Query(i, HcQuery(s, t, w.k), Reference.count(g, s, t, w.k, referenceLimit(w.k)))
    }
    require(cands.nonEmpty, s"no candidate queries for ${w.name}")
    def gap(c: Query) = math.abs(math.log(c.exact.toDouble / w.targetResults))
    (cands.minBy(c => (gap(c), c.id)), cands)
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val w = Workloads.byName(o.workload)
    val lines = ListBuffer.empty[String]
    def say(s: String): Unit = { println(s); lines += s }

    val t0 = now()
    val spark = JobSession.session(s"perfbench-${w.name}")
    val sessionMs = now() - t0
    try {
      val probe = new SparkProbe(spark.sparkContext)

      // Set-up: inputs, reference counts, warm-up.
      val ti = now()
      val (g, pairs, df) = generate(spark, w, o.seed)
      val inputMs = now() - ti
      val tr = now()
      val (query, cands) = reference(g, pairs, w)
      val referenceMs = now() - tr
      val p = Prepared(g, df, query, cands)
      val tw = now()
      warmUp(spark, p)
      val warmupMs = now() - tw
      // The JVM's CPU time from its start: the host's load moves it less
      // than wall time (README).
      val setupS = SparkProbe.processCpuMs() / 1000

      val setupMetrics = Seq(
        Metric("setup.session_ms", sessionMs, "ms", 1),
        Metric("setup.input_ms", inputMs, "ms", 1),
        Metric("setup.reference_ms", referenceMs, "ms", 1),
        Metric("setup.warmup_ms", warmupMs, "ms", 1))
      say(s"workload ${w.name} seed ${o.seed}: |V|=${p.graph.activeVertices} |E|=${p.graph.edgeCount} " +
        s"checksum=${p.graph.checksum} k=${w.k} query=(${p.query.q.s},${p.query.q.t}) exact=${p.query.exact}")

      val deadline = now() + o.seconds * 1000.0
      val result =
        if (!o.trace) untraced(spark, probe, p, deadline, setupS, setupMetrics)
        else traced(spark, probe, p, deadline, setupMetrics)

      (result.metrics ++ result.extra).foreach(m => say(f"${m.name} ${m.value}%.4f ${m.unit} (n=${m.n})"))
      result.info.foreach(say)
      o.report.foreach(path => writeReport(path, spark, o, w, p, result, lines.toSeq))
      println(mapper.writeValueAsString(result.json))
    } finally spark.stop()
  }

  /** Everything one run reports. `metrics` are those of BENCHMARK.json;
    * `extra` metrics and `info` lines are printed but not in the result
    * line; `detail` holds every sample or span. */
  final case class Outcome(metrics: Seq[Metric], extra: Seq[Metric], info: Seq[String], attempted: Int,
                           failures: Seq[String], detail: ArrayNode) {
    /** The result line. */
    def json: ObjectNode = {
      val o = mapper.createObjectNode()
        .put("correct", failures.isEmpty).put("attempted", attempted).put("failed", failures.size)
      val ms = o.putObject("metrics")
      metrics.foreach(m => putNum(ms.putObject(m.name), "value", m.value).put("unit", m.unit))
      o
    }
  }

  /** One untimed call of each untraced entry point on the run's query, so
    * Spark's lazy initialisation, its code generation for the query's plans
    * and most of the JIT are paid in set-up, not by the first sample. A call that fails here fails again, and is
    * counted, when measured. */
  def warmUp(spark: SparkSession, p: Prepared): Unit =
    engines.foreach { case (_, run) =>
      try run(spark, p.edges, p.query.q, cfg) catch { case _: Exception => () }
    }

  /** Calls the untraced entry points on the run's query, rotating their
    * order by one position per round. After one call of each, a call
    * starts only if its entry point's previous call would still end before
    * the deadline, so a run measures for about `--seconds` and no longer. */
  def untraced(spark: SparkSession, probe: SparkProbe, p: Prepared, deadline: Double,
               setupS: Double, setupMetrics: Seq[Metric]): Outcome = {
    val samples = ListBuffer.empty[Sample]
    val lastMs = scala.collection.mutable.Map.empty[String, Double]
    var call = 0
    def next = engines((call + call / engines.size) % engines.size)
    while (call < engines.size || now() + lastMs(next._1) <= deadline) {
      val (name, run) = next
      val t0 = now()
      samples += (try {
        val m = probe.measure(run(spark, p.edges, p.query.q, cfg))
        Sample(name, m.ms, m.cpuMs, m.allocMb, m.driverAllocMb, m.work, Some(m.value), check(m.value, p.query.exact))
      } catch {
        case e: Exception =>
          Sample(name, now() - t0, Double.NaN, Double.NaN, Double.NaN, SparkWork(0, 0, 0, 0, 0), None, Some(e.toString))
      })
      lastMs(name) = now() - t0
      call += 1
    }

    // Timings cover every call that returned, right count or not; a wrong
    // count fails the run through `failed`, not by dropping its sample.
    val returned = samples.filter(_.result.isDefined)
    def m(name: String, unit: String, e: String)(f: Sample => Double): Metric = {
      val xs = returned.filter(_.engine == e).toSeq
      Metric(name, median(xs.map(f)), unit, xs.size)
    }
    val names = engines.map(_._1)
    // Gated: the driver's work per call, which the host's load does not move.
    val metrics = Seq(Metric("setup_s", setupS, "s", 1)) ++
      names.map(e => m(s"driver_alloc_mb.$e", "MB", e)(_.driverAllocMb)) ++
      names.map(e => m(s"jobs_per_query.$e", "count", e)(_.work.jobs.toDouble))
    // Printed, not gated: times, which the host's load moves by up to 2x,
    // and the allocation of all threads, which moves by up to 10% from call
    // to call (README).
    val extra = setupMetrics ++ names.map(e => m(s"query_ms.$e", "ms", e)(_.ms)) ++
      names.map(e => m(s"cpu_ms.$e", "ms", e)(_.cpuMs)) ++
      names.map(e => m(s"alloc_mb.$e", "MB", e)(_.allocMb)) ++
      names.map(e => m(s"response_ms.$e", "ms", e)(_.responseMs)) ++
      names.map(e => m(s"results_per_s.$e", "1/s", e)(s => s.results * 1000.0 / s.ms))
    val partial = m("partial_mb.PathEnum", "MB", "PathEnum")(_.result.get.enum.peakPartialCells * 8 / 1e6)

    val n = samples.size.toDouble
    val failures = samples.filterNot(_.ok).map(s => s"${s.engine} ${p.query.q}: ${s.error.get}").toSeq
    val info = Seq(
      f"${partial.name} ${partial.value}%.6f ${partial.unit} (n=${partial.n})",
      f"truncated_frac ${samples.count(_.truncated) / n}%.4f fraction (n=${samples.size})",
      f"over_budget_frac ${samples.count(s => s.ok && s.ms > cfg.timeBudgetMs) / n}%.4f fraction (n=${samples.size})",
      f"failed_frac ${samples.count(!_.ok) / n}%.4f fraction (n=${samples.size})") ++
      failures.map("FAILED " + _)
    val detail = mapper.createArrayNode()
    samples.foreach { s =>
      val o = detail.addObject().put("engine", s.engine).put("ms", s.ms)
      putNum(o, "cpu_ms", s.cpuMs)
      putNum(o, "alloc_mb", s.allocMb)
      putNum(o, "driver_alloc_mb", s.driverAllocMb)
        .put("jobs", s.work.jobs).put("stages", s.work.stages).put("tasks", s.work.tasks)
        .put("results", s.results).put("truncated", s.truncated).put("response_ms", s.responseMs)
        .put("plan", s.result.fold("")(_.planInfo.plan)).put("error", s.error.orNull)
      // PathEnum's preliminary estimate T-hat, which it compares with tau.
      s.result.map(_.planInfo.prelimEstimate).filter(_ >= 0).foreach(putNum(o, "t_hat", _))
    }
    Outcome(metrics, extra, info, samples.size, failures, detail)
  }

  /** Per round, on the run's query: one untraced `PathEnum.run`, then every
    * module's public functions one at a time, each as a span under the
    * round's query span. The untraced call is a top-level span of its own,
    * kept for comparison. */
  def traced(spark: SparkSession, probe: SparkProbe, p: Prepared, deadline: Double,
             setupMetrics: Seq[Metric]): Outcome = {
    val origin = now()
    val spans = ListBuffer.empty[Span]
    val failures = ListBuffer.empty[String]
    var attempted = 0
    val rows = ListBuffer.empty[Map[String, Double]]
    var round = 0
    val query = p.query
    val q = query.q

    def span[A](parent: Int, name: String)(f: => A): Measured[A] = {
      val start = now() - origin
      val m = probe.measure(f)
      spans += Span(spans.size, parent, round, name, start, start + m.ms, m.work)
      m
    }
    def verify(name: String, r: EnumResult): Unit = {
      attempted += 1
      val asResult = PathEnumResult(r, PlanInfo(name, -1, None, None, None), 0, 0, 0, 0)
      check(asResult, query.exact).foreach(v => failures += s"$name $q: $v")
    }

    var lastMs = 0.0 // the previous round's traced calls, barriers included
    while (round == 0 || now() + lastMs <= deadline) {
      val t0 = now()
      try {
        val pe = span(-1, "PathEnum.run (untraced)")(PathEnum.run(spark, p.edges, q, cfg))
        attempted += 1
        check(pe.value, query.exact).foreach(v => failures += s"PathEnum $q: $v")

        val qs = Span(spans.size, -1, round, "query", now() - origin, Double.NaN, SparkWork(0, 0, 0, 0, 0))
        spans += qs
        val id = qs.id
        val fwd = span(id, "Bfs.distances(s)")(
          Bfs.distances(spark, p.edges, q.s, q.k, noExpand = Set(q.t)))
        val bwd = span(id, "Bfs.distances(t)")(
          Bfs.distances(spark, GraphGen.reverse(p.edges), q.t, q.k, noExpand = Set(q.s)))
        val reached = fwd.value.count() + bwd.value.count()
        val idx = span(id, "LightIndex.build")(LightIndex.build(spark, p.edges, q))
        val index = idx.value
        val (prelim, full, ld, je) = try {
          val prelim = span(id, "Estimator.preliminary")(Estimator.preliminary(spark, index))
          val full = span(id, "Estimator.full")(Estimator.full(spark, index))
          val ld = span(id, "LeftDeepEnum.run")(
            LeftDeepEnum.run(spark, LeftDeepEnum.indexRelation(index), q, cfg))
          val je = span(id, "JoinEnum.run")(
            JoinEnum.run(spark, LeftDeepEnum.indexRelation(index), q, full.value.bestCut, cfg))
          (prelim, full, ld, je)
        } finally index.unpersist()
        verify("LeftDeepEnum.run", ld.value)
        verify("JoinEnum.run", je.value)
        val rel = span(id, "BcDfs.relation")(BcDfs.relation(spark, p.edges, q))
        val relEdges = rel.value._1.count()
        rel.value._1.unpersist(blocking = false)
        spans(id) = qs.copy(endMs = now() - origin)

        // PathEnum's own steps for the plan it chose on this query.
        val plan = pe.value.planInfo.plan
        val optimize = prelim.ms + (if (plan == "DFS(prelim)") 0.0 else full.ms)
        val enumMs = if (plan == "JOIN") je.ms else ld.ms
        val spanSum = idx.ms + optimize + enumMs
        val fastest = math.min(ld.ms, je.ms)
        val tDfs = full.value.tDfs.toDouble
        val cores = spark.sparkContext.defaultParallelism
        rows += Map(
          "Bfs.ms" -> (fwd.ms + bwd.ms),
          "Bfs.jobs" -> (fwd.work.jobs + bwd.work.jobs).toDouble,
          "Bfs.reached" -> reached.toDouble,
          "LightIndex.ms" -> idx.ms,
          "LightIndex.self_ms" -> (idx.ms - fwd.ms - bwd.ms),
          "LightIndex.jobs" -> idx.work.jobs.toDouble,
          "LightIndex.edges" -> index.edgeCount.toDouble,
          "LightIndex.prune_ratio" -> index.edgeCount.toDouble / p.graph.edgeCount,
          "LightIndex.mb" -> index.memoryBytes / 1e6,
          "Estimator.preliminary.ms" -> prelim.ms,
          "Estimator.preliminary.jobs" -> prelim.work.jobs.toDouble,
          "Estimator.full.ms" -> full.ms,
          "Estimator.full.jobs" -> full.work.jobs.toDouble,
          "Estimator.walks_per_path" -> full.value.forward(q.k).toDouble / query.exact,
          "Estimator.prelim_qerror" -> math.max(prelim.value / tDfs, tDfs / prelim.value),
          "PathEnum.optimize_ms" -> optimize,
          "PathEnum.plan_join_frac" -> (if (plan == "JOIN") 1.0 else 0.0),
          "PathEnum.regret" -> enumMs / fastest,
          "LeftDeepEnum.ms" -> ld.ms,
          "LeftDeepEnum.jobs" -> ld.work.jobs.toDouble,
          "LeftDeepEnum.levels" -> ld.value.perLevel.size.toDouble,
          "LeftDeepEnum.peak_partial_cells" -> ld.value.peakPartialCells.toDouble,
          "LeftDeepEnum.response_ms" -> ld.value.responseMs.getOrElse(ld.ms),
          "JoinEnum.ms" -> je.ms,
          "JoinEnum.jobs" -> je.work.jobs.toDouble,
          "JoinEnum.peak_partial_cells" -> je.value.peakPartialCells.toDouble,
          "BcDfs.relation.ms" -> rel.ms,
          "BcDfs.relation.jobs" -> rel.work.jobs.toDouble,
          "BcDfs.relation.edges" -> relEdges.toDouble,
          "spark.stages" -> pe.work.stages.toDouble,
          "spark.tasks" -> pe.work.tasks.toDouble,
          "spark.task_busy_frac" -> pe.work.runMs / (pe.ms * cores),
          "spark.shuffle_write_mb" -> pe.work.shuffleWriteBytes / 1e6,
          "trace.pathenum_query_ms" -> pe.ms,
          "trace.pathenum_span_ms" -> spanSum,
          "trace.overhead_ms" -> (spanSum - pe.ms))
      } catch {
        case e: Exception =>
          attempted += 1
          failures += s"traced $q: $e"
      }
      lastMs = now() - t0
      round += 1
    }

    val units = Map("ms" -> "ms", "jobs" -> "count", "reached" -> "count", "edges" -> "count",
      "levels" -> "count", "peak_partial_cells" -> "count", "stages" -> "count", "tasks" -> "count",
      "mb" -> "MB", "shuffle_write_mb" -> "MB")
    def unitOf(name: String): String = {
      val leaf = name.split('.').last
      units.getOrElse(leaf, if (leaf.endsWith("_ms")) "ms" else "ratio")
    }
    val layerMetrics = if (rows.isEmpty) Seq.empty else rows.head.keys.toSeq.sorted.map { k =>
      Metric(k, median(rows.map(_(k)).toSeq), unitOf(k), rows.size)
    }
    val detail = mapper.createArrayNode()
    spans.foreach { s =>
      val o = detail.addObject().put("id", s.id).put("parent", s.parent).put("round", s.round)
        .put("name", s.name).put("start_ms", s.startMs)
        .put("jobs", s.work.jobs).put("stages", s.work.stages).put("tasks", s.work.tasks)
      putNum(o, "end_ms", s.endMs)
    }
    Outcome(setupMetrics ++ layerMetrics, Seq.empty, failures.map("FAILED " + _).toSeq, attempted, failures.toSeq, detail)
  }

  def writeReport(path: String, spark: SparkSession, o: Options, w: Workload, p: Prepared,
                  r: Outcome, lines: Seq[String]): Unit = {
    val body = mapper.createObjectNode()
      .put("workload", w.name).put("seed", o.seed).put("seconds", o.seconds)
      .put("trace", o.trace).put("commit", o.commit)
      .put("nproc", Runtime.getRuntime.availableProcessors)
      .put("master", spark.sparkContext.master)
      .put("java_version", System.getProperty("java.version"))
      .put("spark_version", spark.version)
    val confs = body.putObject("spark_conf")
    spark.conf.getAll.toSeq.sorted.foreach { case (k, v) => confs.put(k, v) }
    body.put("vertices", p.graph.activeVertices).put("edges", p.graph.edgeCount)
      .put("edge_checksum", p.graph.checksum).put("k", w.k)
    body.putObject("query").put("s", p.query.q.s).put("t", p.query.q.t).put("exact", p.query.exact)
    val cands = body.putArray("candidate_counts")
    p.candidates.foreach(c => cands.add(c.exact))
    val failures = body.putArray("failures")
    r.failures.foreach(s => failures.add(s))
    val printed = body.putArray("printed")
    lines.foreach(l => printed.add(l))
    body.set[ArrayNode](if (o.trace) "spans" else "samples", r.detail)
    val f = new java.io.File(path)
    Option(f.getParentFile).foreach(_.mkdirs())
    mapper.writerWithDefaultPrettyPrinter().writeValue(f, body)
  }
}
