package repro.graph

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import scala.collection.mutable

/** Bounded breadth-first-search distances: one loop, [[search]], over
  * either of two sources of hops.
  *
  * Up to two searches run at once: one from a source along the edges and
  * one from a target against them (distances *to* the target). Hop i is one
  * superstep in the Pregel sense: a [[Hop]] takes both frontiers and
  * returns the successors of the forward one and the predecessors of the
  * backward one. The visited maps and the dedup stay on the driver, so a
  * hop returns only candidate frontier vertices.
  *
  *  - [[sparkHop]] scans the edges as an `(src, dst)` RDD ([[pairs]]) with
  *    a single `mapPartitions` job. The frontiers travel in the task
  *    closure, so every hop runs the same plan with no SQL join or shuffle:
  *    one Spark job per hop.
  *  - [[driverHop]] looks the frontiers up in edges already collected on
  *    the driver, and runs no job. [[repro.core.LightIndex]] finishes
  *    both searches with it, for all k hops, over the candidate edges of a
  *    meet-in-the-middle search.
  *
  * Vertices in a search's stop set (`sStop`, `tStop`, `noExpand`) may be
  * *reached* (they get a distance) but are never *expanded through*. This realizes the paper's
  * `S(s, v | G − {t})` / `S(v, t | G − {s})` semantics: the excluded vertex
  * cannot be an interior vertex of the shortest path, but can be its
  * endpoint.
  */
object Bfs {

  /** One hop of both searches: `(forward frontier, backward frontier)` to
    * `(successors, predecessors)`, duplicates allowed. */
  type Hop = (Set[Long], Set[Long]) => (Array[Long], Array[Long])

  /** The `(src, dst)` pairs of an edge DataFrame: the RDD a search scans. */
  def pairs(edges: DataFrame): RDD[(Long, Long)] =
    edges.select(col("src").cast("long"), col("dst").cast("long")).rdd
      .map(r => (r.getLong(0), r.getLong(1)))

  /** A hop as one `mapPartitions` job over `edges`. */
  def sparkHop(edges: RDD[(Long, Long)]): Hop = (f, b) => {
    val found = edges.mapPartitions { it =>
      val (succ, pred) = (mutable.HashSet.empty[Long], mutable.HashSet.empty[Long])
      it.foreach { case (u, v) =>
        if (f(u)) succ += v
        if (b(v)) pred += u
      }
      Iterator((succ.toArray, pred.toArray))
    }.collect()
    (found.flatMap(_._1), found.flatMap(_._2))
  }

  /** A hop over `edges` held on the driver: no job. */
  def driverHop(edges: Iterable[(Long, Long)]): Hop = {
    val (out, in) = (edges.groupMap(_._1)(_._2), edges.groupMap(_._2)(_._1))
    (f, b) => (f.toArray.flatMap(out.getOrElse(_, Nil)), b.toArray.flatMap(in.getOrElse(_, Nil)))
  }

  /** Distances from `s` along the edges, never expanding through `sStop`,
    * and to `t` against them, never expanding through `tStop`, each within
    * `maxHops` hops: at most `maxHops` calls of `hop`. A search without its
    * source returns an empty map. */
  def search(hop: Hop, s: Option[Long], t: Option[Long], maxHops: Int,
             sStop: Set[Long] = Set.empty,
             tStop: Set[Long] = Set.empty): (Map[Long, Int], Map[Long, Int]) = {
    val ds = mutable.LongMap.empty[Int] ++= s.map(_ -> 0)
    val dt = mutable.LongMap.empty[Int] ++= t.map(_ -> 0)
    // Records the vertices of `found` not seen before as reached at `n`,
    // and returns those the next hop expands.
    def reach(dist: mutable.LongMap[Int], found: Array[Long], stop: Set[Long], n: Int): Set[Long] = {
      val fresh = found.filterNot(dist.contains).toSet
      fresh.foreach(dist(_) = n)
      fresh -- stop
    }
    var (fwd, bwd) = (s.toSet -- sStop, t.toSet -- tStop)
    var n = 1
    while (n <= maxHops && (fwd.nonEmpty || bwd.nonEmpty)) {
      val (succ, pred) = hop(fwd, bwd)
      fwd = reach(ds, succ, sStop, n)
      bwd = reach(dt, pred, tStop, n)
      n += 1
    }
    (ds.toMap, dt.toMap)
  }

  /** Distances from `source` within `maxHops` hops, as a driver-side map. */
  def distanceMap(spark: SparkSession, edges: DataFrame, source: Long,
                  maxHops: Int, noExpand: Set[Long] = Set.empty): Map[Long, Int] =
    search(sparkHop(pairs(edges)), Some(source), None, maxHops, sStop = noExpand)._1

  /** [[distanceMap]] as a DataFrame `(v: Long, dist: Int)`. Distances *to*
    * a target are obtained by passing `GraphGen.reverse(edges)`. */
  def distances(spark: SparkSession, edges: DataFrame, source: Long,
                maxHops: Int, noExpand: Set[Long] = Set.empty): DataFrame =
    spark.createDataFrame(distanceMap(spark, edges, source, maxHops, noExpand).toSeq)
      .toDF("v", "dist")
}
