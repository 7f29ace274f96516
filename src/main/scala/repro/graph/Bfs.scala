package repro.graph

import org.apache.spark.TaskContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import scala.collection.mutable
import scala.reflect.ClassTag

/** Bounded breadth-first-search distances, on Spark over the graph or on
  * the driver over edges already shipped there.
  *
  * On Spark, up to two searches run at once in one loop, [[search]]: one
  * from a source along the edges and one from a target against them
  * (distances *to* the target). Hop i is one superstep in the Pregel sense:
  * a [[Hop]] takes both frontiers and returns the successors of the forward
  * one and the predecessors of the backward one. The visited maps and the
  * dedup stay on the driver, so a hop returns only candidate frontier
  * vertices. [[sparkHop]] runs a hop as one Spark job ([[HopTask]]) over
  * the caller's edges ([[pairs]]), run by [[Edges.run]]. The frontiers
  * travel in the task as sorted arrays, so every hop runs the same plan
  * with no SQL join or shuffle.
  *
  * On the driver, [[Local]] numbers the shipped edges' endpoints densely and
  * runs one search at a time with no job, reading only its frontier's edges.
  * [[repro.core.LightIndex]] and [[repro.baseline.BcDfs]] finish their
  * searches with it over the candidate edges of a meet-in-the-middle search.
  *
  * A search's stop vertices (`sStop`, `tStop`, `noExpand`, `stop`) may be
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
      * then only checks that the task serializes.
      *
      * Spark also names each job after its call site, which it finds by
      * walking the calling thread's stack unless the local properties
      * `callSite.short` and `callSite.long` are both set. The public
      * `setCallSite` sets only the short one, so both are set here, to the
      * task's class name, for the job, and the caller's values are restored
      * after it: each job's stage is named after its task. */
    def run[U: ClassTag](task: Task[U]): Array[U] = {
      val sc = rows.sparkContext
      val callerShort = sc.getLocalProperty(CallSiteShort)
      val callerLong = sc.getLocalProperty(CallSiteLong)
      val name = task.getClass.getSimpleName
      sc.setLocalProperty(CallSiteShort, name)
      sc.setLocalProperty(CallSiteLong, name)
      try sc.runJob(rows, task, rows.partitions.indices)
      finally {
        sc.setLocalProperty(CallSiteShort, callerShort)
        sc.setLocalProperty(CallSiteLong, callerLong)
      }
    }
  }

  /** The local properties Spark reads a job's call site from before it
    * walks the stack (its own constants are private). */
  private val CallSiteShort = "callSite.short"
  private val CallSiteLong = "callSite.long"

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

  /** One hop of both searches over the rows of one partition: the
    * distinct successors of `fwd` and predecessors of `bwd`. */
  private final class HopTask(src: Int, dst: Int, fwd: Array[Long], bwd: Array[Long])
      extends Task[(Array[Long], Array[Long])] {
    def apply(ctx: TaskContext, it: Iterator[Row]): (Array[Long], Array[Long]) = {
      val (succ, pred) = (new mutable.ArrayBuilder.ofLong, new mutable.ArrayBuilder.ofLong)
      while (it.hasNext) {
        val r = it.next()
        val u = id(r, src)
        val v = id(r, dst)
        if (has(fwd, u)) succ.addOne(v)
        if (has(bwd, v)) pred.addOne(u)
      }
      (sortedDistinct(succ.result()), sortedDistinct(pred.result()))
    }
  }

  /** A hop as one Spark job over `edges`. */
  def sparkHop(edges: Edges): Hop = (f, b) => {
    val found = edges.run(new HopTask(edges.src, edges.dst, f, b))
    (concat(found.map(_._1)), concat(found.map(_._2)))
  }

  /** The edges `src(i) -> dst(i)` held on the driver, searched with no job.
    *
    * `ids` is the sorted distinct endpoints, and `from(i)` and `to(i)` are
    * edge i's endpoints as positions in it. A search counts the edges out by
    * the end it expands from, once, so each vertex's edges are one range;
    * holds its distances in an array over the vertex numbers, −1 where
    * unreached; and expands each level's frontier by reading only the
    * frontier vertices' ranges. So it reads each edge at most once. The
    * loops build no tuple, box nothing and call no closure: a C1-only JVM,
    * with no escape analysis, would allocate for each, per edge. */
  final class Local(src: Array[Long], dst: Array[Long]) {
    val ids: Array[Long] = sortedDistinct(Array.concat(src, dst))
    val from: Array[Int] = numbers(src)
    val to: Array[Int] = numbers(dst)

    /** The vertex number of `id`, or −1 if no edge touches it. */
    def vertex(id: Long): Int = math.max(-1, java.util.Arrays.binarySearch(ids, id))

    private def numbers(xs: Array[Long]): Array[Int] = {
      val ns = new Array[Int](xs.length)
      var i = 0
      while (i < xs.length) { ns(i) = java.util.Arrays.binarySearch(ids, xs(i)); i += 1 }
      ns
    }

    /** Distances from `s` along the edges within `maxHops` hops, never
      * expanding through `stop`. */
    def forward(s: Long, maxHops: Int, stop: Option[Long] = None): Array[Int] =
      bfs(from, to, s, maxHops, stop)

    /** Distances to `t` against the edges within `maxHops` hops, never
      * expanding through `stop`. */
    def backward(t: Long, maxHops: Int, stop: Option[Long] = None): Array[Int] =
      bfs(to, from, t, maxHops, stop)

    /** The search from `root` over the edges `key(i) -> other(i)`. */
    private def bfs(key: Array[Int], other: Array[Int], root: Long, maxHops: Int,
                    stop: Option[Long]): Array[Int] = {
      val n = ids.length
      // The edges counted out by `key`: v's neighbors are adj(start(v) until start(v + 1)).
      val start = new Array[Int](n + 1)
      var i = 0
      while (i < key.length) { start(key(i) + 1) += 1; i += 1 }
      i = 0
      while (i < n) { start(i + 1) += start(i); i += 1 }
      val next = java.util.Arrays.copyOf(start, n)
      val adj = new Array[Int](key.length)
      i = 0
      while (i < key.length) { adj(next(key(i))) = other(i); next(key(i)) += 1; i += 1 }
      val dist = new Array[Int](n)
      java.util.Arrays.fill(dist, -1)
      val r = vertex(root)
      if (r >= 0) {
        val noExpand = stop.fold(-1)(vertex)
        // The vertices in the order reached: each level's frontier is a run of it.
        val queue = new Array[Int](n)
        queue(0) = r
        dist(r) = 0
        var head = 0
        var tail = 1
        while (head < tail) {
          val v = queue(head)
          head += 1
          if (dist(v) < maxHops && v != noExpand) {
            var e = start(v)
            while (e < start(v + 1)) {
              val w = adj(e)
              if (dist(w) < 0) { dist(w) = dist(v) + 1; queue(tail) = w; tail += 1 }
              e += 1
            }
          }
        }
      }
      dist
    }
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
