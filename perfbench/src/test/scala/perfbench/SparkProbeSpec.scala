package perfbench

import repro.{ReproSpec, TestGraphs}
import repro.core.{HcQuery, PathEnum}

class SparkProbeSpec extends ReproSpec {

  test("attributes the jobs of a tiny query to the call") {
    val probe = new SparkProbe(spark.sparkContext)
    val edges = edgeDf(TestGraphs.layered)
    val m = probe.measure(PathEnum.run(spark, edges, HcQuery(1L, 2L, 4), Workloads.config))
    assert(m.value.enum.results == 8)
    assert(m.work.jobs > 0 && m.work.stages >= m.work.jobs && m.work.tasks >= m.work.stages)
    assert(m.work.runMs >= 0 && m.ms > 0 && m.cpuMs > 0 && m.allocMb > 0 && m.driverAllocMb > 0)
    assert(probe.untagged == 0, "a job of the call ran without the call's tag")

    // Work outside a measured call is not attributed to the next one.
    edges.count()
    val again = probe.measure(spark.sparkContext.parallelize(1 to 10, 3).count())
    assert(again.work == SparkWork(jobs = 1, stages = 1, tasks = 3, again.work.runMs, 0))
  }
}
