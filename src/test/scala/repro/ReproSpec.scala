package repro

import java.lang.management.ManagementFactory
import org.apache.spark.sql.DataFrame
import repro.core.{HcQuery, LightIndex}
import repro.graph.GraphGen

/** Base for this repo's suites: SparkSpec plus reference-vs-Spark helpers. */
trait ReproSpec extends SparkSpec {

  def edgeDf(pairs: Seq[(Long, Long)]): DataFrame =
    GraphGen.fromPairs(spark, pairs)

  /** The index of `q` over `pairs` from the driver finish alone, with no
    * Spark: the whole edge list is a superset of the candidates. */
  def driverIndex(pairs: Seq[(Long, Long)], q: HcQuery): LightIndex[Unit] =
    LightIndex.fromCandidates(pairs.map(_._1).toArray, pairs.map(_._2).toArray,
      Array.fill(pairs.size)(()), q)

  /** Heap bytes the calling thread allocates in one call of `f`, after
    * `warm` warm calls. */
  def allocated(f: => Any, warm: Int = 1): Long = {
    val mx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    for (_ <- 1 to warm) f
    val before = mx.getCurrentThreadAllocatedBytes
    f
    mx.getCurrentThreadAllocatedBytes - before
  }

  /** Canonical path set from an EnumResult that collected paths; fails if
    * a path repeats or the paths disagree with the result count. */
  def pathSet(r: repro.core.EnumResult): Set[List[Long]] = {
    val paths = r.paths.getOrElse(fail("run did not collect paths")).map(_.toList)
    assert(paths.size == paths.distinct.size, s"duplicate paths in $paths")
    assert(paths.size == r.results, s"${paths.size} paths for ${r.results} results")
    paths.toSet
  }
}

/** Hand-built and random graph fixtures shared across suites. */
object TestGraphs {
  // Layered DAG where every walk is a path (Example 5.2's G0 flavor):
  // s=1, t=2; layers {3,4} -> {5,6} -> {7,8}.
  val layered: Seq[(Long, Long)] = Seq(
    (1L, 3L), (1L, 4L),
    (3L, 5L), (3L, 6L), (4L, 5L), (4L, 6L),
    (5L, 7L), (5L, 8L), (6L, 7L), (6L, 8L),
    (7L, 2L), (8L, 2L))

  // Graph with a 2-cycle feeding walks that are not paths (Example 5.2's G1
  // flavor): s=1, t=2, s->3->t, 3<->4 cycle.
  val cyclic: Seq[(Long, Long)] = Seq(
    (1L, 3L), (3L, 2L), (3L, 4L), (4L, 3L), (4L, 5L), (5L, 4L))

  // A multigraph with a self-loop at s, at t and at interior vertices, and
  // parallel edges: s=1, t=2.
  val selfLoops: Seq[(Long, Long)] = Seq(
    (1L, 1L), (1L, 3L), (1L, 3L), (3L, 3L), (3L, 2L), (3L, 2L), (2L, 2L),
    (3L, 4L), (4L, 4L), (4L, 2L), (2L, 3L))

  // Figure 1 flavor: multiple path lengths from s=1 to t=2, a vertex (9)
  // outside every result, and shortcut edges.
  val figure1: Seq[(Long, Long)] = Seq(
    (1L, 3L), (3L, 2L),          // s -> v0 -> t (length 2)
    (3L, 4L), (4L, 5L), (5L, 2L),// s -> v0 -> v1 -> v2 -> t (length 4)
    (3L, 6L), (6L, 3L),          // v0 <-> v6 cycle (walks, not paths)
    (1L, 7L), (7L, 8L),          // dead-end branch
    (9L, 1L))                    // edge into s (never used)

  /** Random graphs for equivalence sweeps: (name, edges, s, t). s=1, t=2
    * are forced to exist via an ensured edge into the graph body. */
  def randomCases(count: Int, n: Int = 12, e: Int = 30): Seq[(String, Seq[(Long, Long)])] =
    (1 to count).map { i =>
      val edges = (RefGraph.random(n, e, seed = 77 + i) ++
        Seq((1L, 3L), (4L, 2L))).distinct.filter { case (a, b) => a != b }
      (s"random-$i(n=$n,e=${edges.size})", edges)
    }
}
