package repro

import java.util.concurrent.{ConcurrentHashMap, CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.baseline.BcDfs
import repro.core.{EnumConfig, Extensions, HcQuery, LightIndex, PathEnum}

/** The Spark jobs of one job group, the stages they planned and the
  * stages' names. */
final case class GroupWork(jobs: Int, stages: Int, stageNames: Set[String])

/** Counts the Spark jobs and stages of one job group (`spark.jobGroup.id`). */
final class GroupJobs(sc: SparkContext) extends SparkListener {
  private val jobs = new ConcurrentHashMap[String, AtomicInteger]()
  private val stages = new ConcurrentHashMap[String, AtomicInteger]()
  private val names = new ConcurrentHashMap[String, Set[String]]()
  private val markers = new ConcurrentHashMap[String, CountDownLatch]()
  private var groups = 0
  sc.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit =
    Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).foreach { g =>
      jobs.computeIfAbsent(g, _ => new AtomicInteger).incrementAndGet()
      stages.computeIfAbsent(g, _ => new AtomicInteger).addAndGet(e.stageInfos.size)
      names.merge(g, e.stageInfos.map(_.name).toSet, _ ++ _)
      Option(markers.get(g)).foreach(_.countDown())
    }

  /** Runs `f` in a job group of its own and returns the work it ran. A
    * one-task marker job in a second group runs after it: listener events
    * arrive in order, so once the marker's start is seen, every job of the
    * group has been counted. */
  def count(f: => Any): GroupWork = {
    groups += 1
    val (group, marker) = (s"counted-$groups", s"marker-$groups")
    def in(g: String)(body: => Any): Unit = {
      sc.setJobGroup(g, g)
      try body finally sc.clearJobGroup()
    }
    markers.put(marker, new CountDownLatch(1))
    in(group)(f)
    in(marker)(sc.parallelize(Seq(1), 1).count())
    assert(markers.get(marker).await(60, TimeUnit.SECONDS), "listener events did not arrive")
    def of(m: ConcurrentHashMap[String, AtomicInteger]) = Option(m.get(group)).fold(0)(_.get)
    GroupWork(of(jobs), of(stages), Option(names.get(group)).getOrElse(Set.empty))
  }
}

/** The index costs at most ⌈k/2⌉ Spark jobs: ⌊(k − 1)/2⌋ fused BFS hops,
  * where the searches from s and to t meet in the middle, and one job that
  * returns the candidate edges. PathEnum runs nothing else on Spark, and
  * BC-DFS reads its relation from the same candidate job, so it costs
  * ⌈k/2⌉ too. Each job is one stage, so the query path runs no SQL join
  * and no shuffle, and no session setting shapes it. */
class JobCountSpec extends ReproSpec {

  private lazy val counter = new GroupJobs(spark.sparkContext)
  private val cfg = EnumConfig(timeBudgetMs = 300000L)
  private val ks = 2 to 6

  /** Counts the jobs of `f`, asserts that each is a single stage, and
    * returns the count. */
  private def jobs(f: => Any): Int = {
    val w = counter.count(f)
    assert(w.stages == w.jobs, s"$w: a job ran more than one stage")
    w.jobs
  }

  private def half(k: Int): Int = (k + 1) / 2

  for ((name, pairs) <- Seq("layered" -> TestGraphs.layered, "figure1" -> TestGraphs.figure1)) {
    test(s"index, PathEnum and BC-DFS each run at most k jobs on $name (k = 4)") {
      val edges = edgeDf(pairs)
      val q = HcQuery(1L, 2L, 4)
      assert(jobs(LightIndex.build(spark, edges, q)) <= q.k)
      assert(jobs(PathEnum.run(spark, edges, q, cfg)) <= q.k)
      assert(jobs(BcDfs.run(spark, edges, q, cfg)) <= q.k)
    }

    test(s"index and PathEnum run at most ceil(k/2) jobs and BC-DFS at most k on $name (k = 2..6)") {
      val edges = edgeDf(pairs)
      for (k <- ks) {
        val q = HcQuery(1L, 2L, k)
        assert(jobs(LightIndex.build(spark, edges, q)) <= half(k), s"index, k = $k")
        assert(jobs(PathEnum.run(spark, edges, q, cfg)) <= half(k), s"PathEnum, k = $k")
        assert(jobs(BcDfs.run(spark, edges, q, cfg)) <= half(k), s"BC-DFS, k = $k")
      }
    }
  }

  test("Appendix E runs cost k jobs, plus one for the automaton's transitions") {
    import spark.implicits._
    val weighted = TestGraphs.layered.map { case (a, b) => (a, b, 1.0) }.toDF("src", "dst", "w")
    val labeled = TestGraphs.layered.map { case (a, b) => (a, b, 1L) }.toDF("src", "dst", "lbl")
    val transitions = Seq((0L, 1L, 0L)).toDF("state", "lbl", "next")
    val q = HcQuery(1L, 2L, 4)
    assert(jobs(Extensions.accumulative(weighted, q, 0.0, _ + _, _ => true,
      cfg = cfg)) <= q.k)
    assert(jobs(Extensions.automaton(labeled, q, transitions, 0L, Set(0L),
      cfg)) <= q.k + 1)
  }

  test("Appendix E runs cost ceil(k/2) jobs, plus one for the automaton's transitions (k = 2..6)") {
    import spark.implicits._
    val weighted = TestGraphs.layered.map { case (a, b) => (a, b, 1.0) }.toDF("src", "dst", "w")
    val labeled = TestGraphs.layered.map { case (a, b) => (a, b, 1L) }.toDF("src", "dst", "lbl")
    val transitions = Seq((0L, 1L, 0L)).toDF("state", "lbl", "next")
    for (k <- ks) {
      val q = HcQuery(1L, 2L, k)
      assert(jobs(Extensions.accumulative(weighted, q, 0.0, _ + _, _ => true,
        cfg = cfg)) <= half(k), s"accumulative, k = $k")
      assert(jobs(Extensions.automaton(labeled, q, transitions, 0L, Set(0L),
        cfg)) <= half(k) + 1, s"automaton, k = $k")
    }
  }

  /** Spark names a job's stage after its call site. The query path sets the
    * call site to its task's name for each job, so Spark does not walk the
    * calling thread's stack for it, and gives the caller's call site back. */
  test("a PathEnum query's stages are named after its tasks, and the caller's call site stays set") {
    val edges = edgeDf(TestGraphs.figure1)
    val sc = spark.sparkContext
    sc.setCallSite("caller")
    try {
      val w = counter.count(PathEnum.run(spark, edges, HcQuery(1L, 2L, 4), cfg))
      assert(w.jobs > 0 && w.stageNames.subsetOf(Set("HopTask", "CandidateTask")), w)
      assert(sc.getLocalProperty("callSite.short") == "caller")
      assert(sc.getLocalProperty("callSite.long") == null)
    } finally sc.clearCallSite()
  }

  /** The driver's own cost of a query: what its calling thread allocates.
    * Spark's closure cleaner re-reading a large class file for each job
    * allocated 12.7-12.9 MB per index build or PathEnum call and 21.3-21.5 MB
    * per BC-DFS call here. Named tasks and a primitive driver finish took
    * that to 94-100 KB; a call site set for each job, so that Spark walks no
    * stack for it, and a driver search over densely numbered edges take it
    * to 16-20 KB (4 cores). */
  test("index, PathEnum and BC-DFS each allocate under 2 MB on the calling thread on layered (k = 4)") {
    val edges = edgeDf(TestGraphs.layered)
    val q = HcQuery(1L, 2L, 4)
    val bound = 2000000L
    for ((name, bytes) <- Seq(
        "index" -> allocated(LightIndex.build(spark, edges, q)),
        "PathEnum" -> allocated(PathEnum.run(spark, edges, q, cfg)),
        "BC-DFS" -> allocated(BcDfs.run(spark, edges, q, cfg))))
      assert(bytes <= bound, s"$name allocated $bytes bytes on the calling thread")
  }
}
