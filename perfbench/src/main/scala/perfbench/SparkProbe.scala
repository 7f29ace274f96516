package perfbench

import java.util.concurrent.{ConcurrentHashMap, LinkedBlockingQueue, TimeUnit}
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Spark work attributed to one call. `runMs` is executor run time summed
  * over tasks; `shuffleWriteBytes` is summed over tasks. */
final case class SparkWork(jobs: Int, stages: Int, tasks: Int, runMs: Long, shuffleWriteBytes: Long)

/** A call timed on the benchmark's clock, with its Spark work. `cpuMs` is
  * the CPU time the whole JVM used while the call ran (driver, Spark
  * tasks, JIT and GC threads) and `allocMb` the heap it allocated, all
  * threads. `driverAllocMb` is the heap allocated by the calling thread
  * alone: the driver's planning, code generation and job submission, and
  * the program's own driver-side code. Wall and CPU time grow when the
  * host is busy, and the tasks' allocation moves by up to 10% from call to
  * call on the same query; the calling thread's allocation does neither. */
final case class Measured[A](value: A, ms: Double, cpuMs: Double, allocMb: Double, driverAllocMb: Double,
                             work: SparkWork)

/** A `SparkListener` that attributes jobs, stages, tasks, executor run time
  * and shuffle writes to the call in flight.
  *
  * Every job submitted during a call carries the call's tag as a local
  * property; stages and tasks are mapped to the tag through their job.
  * Listener events arrive asynchronously, so after the call the probe runs
  * a one-task barrier job and waits for its end event: events are delivered
  * in order, so by then every event of the call has been seen. This is valid
  * because the benchmark is a single client whose calls never overlap.
  */
final class SparkProbe(sc: SparkContext) extends SparkListener {
  private val TagKey = "perfbench.call"
  private val BarrierTag = "barrier"

  private final class Counts { var jobs, stages, tasks = 0; var runMs, shuffle = 0L }
  private val counts = new ConcurrentHashMap[String, Counts]()
  private val stageTag = new ConcurrentHashMap[Int, String]()
  private val jobTag = new ConcurrentHashMap[Int, String]()
  private val barriers = new LinkedBlockingQueue[Integer]()
  @volatile private var untaggedJobs = 0
  private var calls = 0

  sc.addSparkListener(this)

  /** Jobs that ran outside any measured call (should stay 0 while a call
    * is in flight; checked by the self-tests). */
  def untagged: Int = untaggedJobs

  def measure[A](f: => A): Measured[A] = {
    calls += 1
    val tag = s"call-$calls"
    counts.put(tag, new Counts)
    sc.setLocalProperty(TagKey, tag)
    val a0 = SparkProbe.allocatedMb()
    val d0 = SparkProbe.threadAllocatedMb()
    val c0 = SparkProbe.processCpuMs()
    val t0 = System.nanoTime()
    val value = try f finally sc.setLocalProperty(TagKey, null)
    val ms = (System.nanoTime() - t0) / 1e6
    val cpuMs = SparkProbe.processCpuMs() - c0
    val allocMb = SparkProbe.allocatedMb() - a0
    val driverAllocMb = SparkProbe.threadAllocatedMb() - d0
    barrier()
    val c = counts.remove(tag)
    Measured(value, ms, cpuMs, allocMb, driverAllocMb, SparkWork(c.jobs, c.stages, c.tasks, c.runMs, c.shuffle))
  }

  private def barrier(): Unit = {
    sc.setLocalProperty(TagKey, BarrierTag)
    try sc.parallelize(Seq(1), 1).count()
    finally sc.setLocalProperty(TagKey, null)
    if (barriers.poll(60, TimeUnit.SECONDS) == null)
      throw new IllegalStateException("Spark listener events did not arrive within 60 s")
  }

  private def tagOf(props: java.util.Properties): String =
    if (props == null) null else props.getProperty(TagKey)

  override def onJobStart(e: SparkListenerJobStart): Unit = tagOf(e.properties) match {
    case null => untaggedJobs += 1
    case BarrierTag => jobTag.put(e.jobId, BarrierTag)
    case tag =>
      jobTag.put(e.jobId, tag)
      e.stageIds.foreach(stageTag.put(_, tag))
      Option(counts.get(tag)).foreach(_.jobs += 1)
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    Option(stageTag.get(e.stageInfo.stageId)).flatMap(t => Option(counts.get(t))).foreach(_.stages += 1)

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    for (t <- Option(stageTag.get(e.stageId)); c <- Option(counts.get(t)); m <- Option(e.taskMetrics)) {
      c.tasks += 1
      c.runMs += m.executorRunTime
      c.shuffle += m.shuffleWriteMetrics.bytesWritten
    }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    if (jobTag.remove(e.jobId) == BarrierTag) barriers.put(Integer.valueOf(e.jobId))
}

object SparkProbe {
  private val os = java.lang.management.ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]

  /** CPU time used by this JVM since it started, all threads, in ms. */
  def processCpuMs(): Double = os.getProcessCpuTime / 1e6

  private val threads = java.lang.management.ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean]

  /** Heap allocated by this JVM since it started, live and ended threads,
    * in MB. */
  def allocatedMb(): Double = threads.getTotalThreadAllocatedBytes / 1e6

  /** Heap allocated by the calling thread since it started, in MB. */
  def threadAllocatedMb(): Double = threads.getCurrentThreadAllocatedBytes / 1e6
}
