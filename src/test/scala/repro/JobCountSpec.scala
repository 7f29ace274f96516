package repro

import java.util.concurrent.{ConcurrentHashMap, CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.baseline.BcDfs
import repro.core.{EnumConfig, Extensions, HcQuery, LightIndex, PathEnum}

/** Counts the Spark jobs of one job group (`spark.jobGroup.id`). */
final class GroupJobs(sc: SparkContext) extends SparkListener {
  private val jobs = new ConcurrentHashMap[String, AtomicInteger]()
  private val markers = new ConcurrentHashMap[String, CountDownLatch]()
  private var groups = 0
  sc.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit =
    Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).foreach { g =>
      jobs.computeIfAbsent(g, _ => new AtomicInteger).incrementAndGet()
      Option(markers.get(g)).foreach(_.countDown())
    }

  /** Runs `f` in a job group of its own and returns the jobs it ran. A
    * one-task marker job in a second group runs after it: listener events
    * arrive in order, so once the marker's start is seen, every job of the
    * group has been counted. */
  def count(f: => Any): Int = {
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
    Option(jobs.get(group)).fold(0)(_.get)
  }
}

/** The query path costs at most k Spark jobs: k − 1 fused BFS hops and
  * one job that returns the relation's edges. */
class JobCountSpec extends ReproSpec {

  private lazy val counter = new GroupJobs(spark.sparkContext)
  private val q = HcQuery(1L, 2L, 4)
  private val cfg = EnumConfig(timeBudgetMs = 300000L)

  for ((name, pairs) <- Seq("layered" -> TestGraphs.layered, "figure1" -> TestGraphs.figure1)) {
    test(s"index, PathEnum and BC-DFS each run at most k jobs on $name (k = 4)") {
      val edges = edgeDf(pairs)
      assert(counter.count(LightIndex.build(spark, edges, q)) <= q.k)
      assert(counter.count(PathEnum.run(spark, edges, q, cfg)) <= q.k)
      assert(counter.count(BcDfs.run(spark, edges, q, cfg)) <= q.k)
    }
  }

  test("Appendix E runs cost k jobs, plus one for the automaton's transitions") {
    import spark.implicits._
    val weighted = TestGraphs.layered.map { case (a, b) => (a, b, 1.0) }.toDF("src", "dst", "w")
    val labeled = TestGraphs.layered.map { case (a, b) => (a, b, 1L) }.toDF("src", "dst", "lbl")
    val transitions = Seq((0L, 1L, 0L)).toDF("state", "lbl", "next")
    assert(counter.count(Extensions.accumulative(spark, weighted, q, 0.0, _ + _, _ => true,
      cfg = cfg)) <= q.k)
    assert(counter.count(Extensions.automaton(spark, labeled, q, transitions, 0L, Set(0L),
      cfg)) <= q.k + 1)
  }
}
