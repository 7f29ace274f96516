package repro.core

import org.apache.spark.sql.DataFrame

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

  /** From `(src, dst, dt(dst), attr)` rows; ties in `dt` are ordered by
    * target id, then attribute, so the search order is deterministic. */
  def apply[A: Ordering](rows: Seq[(Long, Long, Int, A)]): Adjacency[A] = {
    // Slot order, as tuples so that sorting allocates no keys.
    val edges = rows.map { case (src, dst, dt, a) => (src, dt, dst, a) }.distinct.sorted
    val ids = (edges.map(_._1) ++ edges.map(_._3)).distinct.sorted.toArray
    def num(id: Long): Int = java.util.Arrays.binarySearch(ids, id)
    val offsets = new Array[Int](ids.length + 1)
    edges.foreach(e => offsets(num(e._1) + 1) += 1)
    for (v <- ids.indices) offsets(v + 1) += offsets(v)
    new Adjacency(ids, offsets, edges.map(e => num(e._3)).toArray, edges.map(_._2).toArray,
      edges.map(_._4).toIndexedSeq)
  }

  /** Collect an `(er_src, er_dst, er_dt)` relation: one Spark job. */
  def collect(rel: DataFrame): Adjacency[Unit] =
    Adjacency(rel.select("er_src", "er_dst", "er_dt").collect().toSeq
      .map(r => (r.getLong(0), r.getLong(1), r.getInt(2), ())))
}
