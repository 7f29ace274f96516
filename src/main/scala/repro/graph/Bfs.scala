package repro.graph

import org.apache.spark.TaskContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import scala.collection.mutable
import scala.reflect.ClassTag

/** Bounded breadth-first-search distances: one loop, [[search]], over
  * one hop kernel fed by either of two edge streams.
  *
  * Up to two searches run at once: one from a source along the edges and
  * one from a target against them (distances *to* the target). Hop i is one
  * superstep in the Pregel sense: a [[Hop]] takes both frontiers and
  * returns the successors of the forward one and the predecessors of the
  * backward one. The visited maps and the dedup stay on the driver, so a
  * hop returns only candidate frontier vertices. Every hop is a
  * [[HopKernel]], a pass over a stream of edges:
  *
  *  - [[sparkHop]] streams the caller's edges ([[pairs]]) through it in one
  *    Spark job, run by [[Edges.run]]. The frontiers travel in the task as
  *    sorted arrays, so every hop runs the same plan with no SQL join or
  *    shuffle: one Spark job per hop.
  *  - [[driverHop]] streams edges already collected on the driver through
  *    it, and runs no job. [[repro.core.LightIndex]] and
  *    [[repro.baseline.BcDfs]] finish their searches with it over the
  *    candidate edges of a meet-in-the-middle search.
  *
  * Vertices in a search's stop set (`sStop`, `tStop`, `noExpand`) may be
  * *reached* (they get a distance) but are never *expanded through*. This realizes the paper's
  * `S(s, v | G − {t})` / `S(v, t | G − {s})` semantics: the excluded vertex
  * cannot be an interior vertex of the shortest path, but can be its
  * endpoint.
  */
object Bfs {

  /** One hop of both searches: `(forward frontier, backward frontier)` to
    * `(successors, predecessors)`, duplicates allowed. A frontier is sorted
    * and distinct. */
  type Hop = (Array[Long], Array[Long]) => (Array[Long], Array[Long])

  /** A Spark task over the rows of an [[Edges]] scan: a named class, never
    * a lambda (see [[Edges.run]]). */
  abstract class Task[U] extends ((TaskContext, Iterator[Row]) => U) with Serializable

  /** The rows of an edge DataFrame as Spark scans them, with the positions
    * of `src` and `dst` in a row. */
  final case class Edges(rows: RDD[Row], src: Int, dst: Int) {

    /** Runs `task` on every partition of the rows as one Spark job, and
      * returns its results in partition order. Every Spark job of the query
      * path goes through here.
      *
      * Spark's closure cleaner costs most of a small job's driver work when
      * handed a Scala lambda: it re-reads the class file defining the lambda
      * to look for `return` statements, and `RDD.collect` and the one-argument
      * `SparkContext.runJob` hand it lambdas of their own large classes. It
      * skips that step for a function object that is not a lambda, so each
      * task is a named [[Task]], handed to the two-argument overload: Spark
      * then only checks that the task serializes. */
    def run[U: ClassTag](task: Task[U]): Array[U] =
      rows.sparkContext.runJob(rows, task, rows.partitions.indices)
  }

  /** The edges of `edges` (columns `src` and `dst`, of any integral type)
    * as the search scans them. `Dataset.rdd` is memoized on the DataFrame,
    * so a caller that reuses its DataFrame has it planned once. */
  def pairs(edges: DataFrame): Edges =
    Edges(edges.rdd, edges.schema.fieldIndex("src"), edges.schema.fieldIndex("dst"))

  /** The value of column `i` of `r`, an integral vertex id, as a `Long`. */
  def id(r: Row, i: Int): Long = r.get(i).asInstanceOf[Number].longValue

  /** `xs` sorted in place, and its distinct values. */
  def sortedDistinct(xs: Array[Long]): Array[Long] = {
    java.util.Arrays.sort(xs)
    var n = 0
    var i = 0
    while (i < xs.length) {
      if (n == 0 || xs(i) != xs(n - 1)) { xs(n) = xs(i); n += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(xs, n)
  }

  /** A job's per-partition arrays joined in partition order, copied once. */
  def concat[T: ClassTag](parts: Array[Array[T]]): Array[T] = Array.concat(parts.toSeq: _*)

  /** Whether the sorted array `xs` holds `v`. */
  def has(xs: Array[Long], v: Long): Boolean = java.util.Arrays.binarySearch(xs, v) >= 0

  /** One hop of both searches over a stream of edges: fed every edge
    * `(u, v)` once, it returns the distinct successors of `fwd` and
    * predecessors of `bwd`. The one hop kernel of [[sparkHop]] and
    * [[driverHop]]. */
  private final class HopKernel(fwd: Array[Long], bwd: Array[Long]) {
    private val (succ, pred) = (new mutable.ArrayBuilder.ofLong, new mutable.ArrayBuilder.ofLong)

    def add(u: Long, v: Long): Unit = {
      if (has(fwd, u)) succ.addOne(v)
      if (has(bwd, v)) pred.addOne(u)
    }

    def result(): (Array[Long], Array[Long]) =
      (sortedDistinct(succ.result()), sortedDistinct(pred.result()))
  }

  /** [[HopKernel]] over the rows of one partition. */
  private final class HopTask(src: Int, dst: Int, fwd: Array[Long], bwd: Array[Long])
      extends Task[(Array[Long], Array[Long])] {
    def apply(ctx: TaskContext, it: Iterator[Row]): (Array[Long], Array[Long]) = {
      val hop = new HopKernel(fwd, bwd)
      while (it.hasNext) {
        val r = it.next()
        hop.add(id(r, src), id(r, dst))
      }
      hop.result()
    }
  }

  /** A hop as one Spark job over `edges`. */
  def sparkHop(edges: Edges): Hop = (f, b) => {
    val found = edges.run(new HopTask(edges.src, edges.dst, f, b))
    (concat(found.map(_._1)), concat(found.map(_._2)))
  }

  /** A hop as [[HopKernel]] over the edges `src(i) -> dst(i)` held on the
    * driver: no job. */
  def driverHop(src: Array[Long], dst: Array[Long]): Hop = (f, b) => {
    val hop = new HopKernel(f, b)
    for (i <- src.indices) hop.add(src(i), dst(i))
    hop.result()
  }

  /** Distances from `s` along the edges, never expanding through `sStop`,
    * and to `t` against them, never expanding through `tStop`, each within
    * `maxHops` hops: at most `maxHops` calls of `hop`. A search without its
    * source returns an empty map. */
  def search(hop: Hop, s: Option[Long], t: Option[Long], maxHops: Int,
             sStop: Set[Long] = Set.empty,
             tStop: Set[Long] = Set.empty): (mutable.LongMap[Int], mutable.LongMap[Int]) = {
    val ds = mutable.LongMap.empty[Int] ++= s.map(_ -> 0)
    val dt = mutable.LongMap.empty[Int] ++= t.map(_ -> 0)
    // Records the vertices of `found` not seen before as reached at `n`,
    // and returns those the next hop expands, sorted.
    def reach(dist: mutable.LongMap[Int], found: Array[Long], stop: Array[Long], n: Int): Array[Long] = {
      val next = new mutable.ArrayBuilder.ofLong
      for (i <- found.indices) {
        val v = found(i)
        if (!dist.contains(v)) {
          dist(v) = n
          if (!has(stop, v)) next.addOne(v)
        }
        () // a Unit body keeps the loop unboxed
      }
      val fresh = next.result()
      java.util.Arrays.sort(fresh)
      fresh
    }
    val (sStops, tStops) = (sStop.toArray.sorted, tStop.toArray.sorted)
    var (fwd, bwd) = (s.filterNot(sStop).toArray, t.filterNot(tStop).toArray)
    var n = 1
    while (n <= maxHops && (fwd.nonEmpty || bwd.nonEmpty)) {
      val (succ, pred) = hop(fwd, bwd)
      fwd = reach(ds, succ, sStops, n)
      bwd = reach(dt, pred, tStops, n)
      n += 1
    }
    (ds, dt)
  }

  /** A search's distances as sorted vertex ids and their distances: the
    * compact form a task carries. */
  final class Distances(dist: mutable.LongMap[Int]) extends Serializable {
    private val ids = dist.keysIterator.toArray
    java.util.Arrays.sort(ids)
    private val d = ids.map(dist)

    /** The distance of `v`, or `default` where the search did not reach it. */
    def apply(v: Long, default: Int): Int = {
      val i = java.util.Arrays.binarySearch(ids, v)
      if (i >= 0) d(i) else default
    }
  }

  /** Distances from `source` within `maxHops` hops, as a driver-side map. */
  def distanceMap(edges: DataFrame, source: Long, maxHops: Int,
                  noExpand: Set[Long] = Set.empty): Map[Long, Int] =
    search(sparkHop(pairs(edges)), Some(source), None, maxHops, sStop = noExpand)._1.toMap

  /** [[distanceMap]] as a DataFrame `(v: Long, dist: Int)`. Distances *to*
    * a target are obtained by passing `GraphGen.reverse(edges)`. */
  def distances(spark: SparkSession, edges: DataFrame, source: Long,
                maxHops: Int, noExpand: Set[Long] = Set.empty): DataFrame =
    spark.createDataFrame(distanceMap(edges, source, maxHops, noExpand).toSeq)
      .toDF("v", "dist")
}
