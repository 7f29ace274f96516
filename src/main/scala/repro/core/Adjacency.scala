package repro.core

import org.apache.spark.sql.DataFrame
import repro.graph.Bfs
import scala.collection.mutable

/** An index-scale edge relation collected on the driver in the layout of
  * Algorithm 3: vertices are numbered densely in id order, and each
  * vertex's out-edges ("slots") are sorted by the target's distance-to-t,
  * so the paper's `I_t(v, b)` is the prefix of `first(v) until end(v)`
  * with `dt <= b`.
  *
  * This is the program's one normalisation point for multigraph input.
  * There is one slot per distinct `(src, dst, attr)` row: parallel entries
  * collapse, so a multigraph input yields each path once. Self-loops stay
  * as slots: the DP ([[Estimator]]) counts them, as walks, and the search's
  * on-path test ([[LeftDeepEnum.dfs]]) skips them. `attr` is the per-edge
  * value of the Appendix E variants, `Unit` for the plain engines.
  */
final class Adjacency[A] private (
    val ids: Array[Long],      // vertex number -> vertex id, ascending
    offsets: Array[Int],       // slots of v: offsets(v) until offsets(v + 1)
    val dst: Array[Int],       // slot -> target vertex number
    val dt: Array[Int],        // slot -> the target's distance-to-t
    val attr: IndexedSeq[A]) { // slot -> edge attribute

  /** Vertex number of `id`, or -1 if no slot touches it. */
  def vertex(id: Long): Int = math.max(-1, java.util.Arrays.binarySearch(ids, id))
  def first(v: Int): Int = offsets(v)
  def end(v: Int): Int = offsets(v + 1)
  def vertexCount: Int = ids.length
  def edgeCount: Int = dst.length
}

object Adjacency {

  /** From the rows `src(i) -> dst(i)` with `dt(i)`, the distance-to-t of
    * `dst(i)`, and `attr(i)`; ties in `dt` are ordered by target id, then
    * attribute, so the search order is deterministic.
    *
    * A row's target packs into one `Long` that sorts as `(dt, target
    * number)`. The rows are sorted by that key's rank and then, stably,
    * counted out by source, so no tuple is built. */
  def apply[A: Ordering](src: Array[Long], dst: Array[Long], dt: Array[Int],
                         attr: Array[A]): Adjacency[A] = {
    val n = src.length
    val ids = Bfs.sortedDistinct(Array.concat(src, dst))
    def num(id: Long): Int = java.util.Arrays.binarySearch(ids, id)
    val (from, target) = (new Array[Int](n), new Array[Long](n))
    for (i <- 0 until n) {
      from(i) = num(src(i))
      target(i) = dt(i).toLong << 32 | num(dst(i))
    }
    val targets = Bfs.sortedDistinct(target.clone())
    val byTarget = new Array[Long](n)
    for (i <- 0 until n) byTarget(i) = java.util.Arrays.binarySearch(targets, target(i)).toLong << 32 | i
    java.util.Arrays.sort(byTarget)
    val next = new Array[Int](ids.length + 1)
    for (i <- 0 until n) next(from(i) + 1) += 1
    for (v <- ids.indices) next(v + 1) += next(v)
    val order = new Array[Int](n) // rows in slot order, duplicates adjacent
    for (j <- 0 until n) {
      val i = byTarget(j).toInt
      order(next(from(i))) = i
      next(from(i)) += 1
    }
    val offsets = new Array[Int](ids.length + 1)
    val (slotDst, slotDt) = (new mutable.ArrayBuilder.ofInt, new mutable.ArrayBuilder.ofInt)
    val attrs = IndexedSeq.newBuilder[A]
    var j = 0
    while (j < n) {
      val i = order(j)
      var end = j + 1
      while (end < n && from(order(end)) == from(i) && target(order(end)) == target(i)) end += 1
      def slot(a: A): Unit = {
        offsets(from(i) + 1) += 1
        slotDst.addOne(target(i).toInt)
        slotDt.addOne(dt(i))
        attrs += a
      }
      if (end == j + 1) slot(attr(i))
      else (j until end).map(x => attr(order(x))).distinct.sorted.foreach(slot)
      j = end
    }
    for (v <- ids.indices) offsets(v + 1) += offsets(v)
    new Adjacency(ids, offsets, slotDst.result(), slotDt.result(), attrs.result())
  }

  /** Collect an `(er_src, er_dst, er_dt)` relation: one Spark job. */
  def collect(rel: DataFrame): Adjacency[Unit] = {
    val rows = rel.select("er_src", "er_dst", "er_dt").collect()
    Adjacency(rows.map(_.getLong(0)), rows.map(_.getLong(1)), rows.map(_.getInt(2)),
      Array.fill(rows.length)(()))
  }
}
