package repro.core

import org.apache.spark.TaskContext
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.graph.Bfs
import scala.collection.mutable
import scala.reflect.ClassTag

/** The paper's light-weight query-dependent index (Algorithm 3), held on
  * the driver in the paper's own layout.
  *
  * Here `ds(v) = S(s, v | G − {t})` and `dt(v) = S(v, t | G − {s})`. X is
  * the vertices with `ds(v) + dt(v) <= k`, and an edge `(u, v)` is in the
  * index when `u` and `v` are in X and `ds(u) + dt(v) + 1 <= k` (the
  * H-table neighbor condition), `u != t` (enumeration never expands past
  * t) and `v != s` (s is never interior, Definition 2.1). The Spark job of
  * [[LightIndex.candidates]] only narrows the edges; the driver finish
  * ([[LightIndex.fromCandidates]]) tests the last three, which imply the
  * first.
  *
  * `local` has the index edges with dt-sorted neighbors, so `I_t(v, b)` is
  * a prefix scan. Its vertices are exactly X: each vertex of X but `t` has
  * the first edge of a shortest path to `t`, and `t` the last edge of one
  * from `s`. `ds` and `dt` are indexed by `local`'s vertex numbers, so
  * `I(i)` (C_i) is the vertices with `ds <= i && dt <= k - i`.
  * [[Estimator]], [[LeftDeepEnum]] and [[JoinEnum]] run over this form.
  * `A` is the edge attribute of the Appendix E variants ([[Extensions]]),
  * `Unit` for the plain index.
  */
final case class LightIndex[A](
    query: HcQuery,
    buildMs: Double,
    local: Adjacency[A],
    ds: Array[Int],
    dt: Array[Int]) {

  def edgeCount: Long = local.edgeCount
  def vertexCount: Long = local.vertexCount

  /** Index memory in the sense of Table 7: the bytes of its arrays.
    * `local` has `ids` (8 per vertex), `offsets` (4 per vertex, plus 4) and
    * the slots' `dst` and `dt` (4 each); `ds` and `dt` have 4 per vertex. */
  def memoryBytes: Long = edgeCount * 8 + vertexCount * 20 + 4

  /** Nothing is cached on Spark: the index lives on the driver. */
  def unpersist(): Unit = ()
}

object LightIndex {

  /** Build the index for `q` over `graphEdges` (columns `src`, `dst`): at
    * most ⌈k/2⌉ Spark jobs (see [[collect]]) over its memoized `rdd`. */
  def build(spark: SparkSession, graphEdges: DataFrame, q: HcQuery): LightIndex[Unit] =
    collect(Bfs.pairs(graphEdges), q)(_ => ())

  /** The edges of one partition that can lie on a path of `q` by the lower
    * bounds `nearS` and `nearT` (`far` where unreached) and whose target is
    * not in the sorted `tStop`, each with its `attr`. */
  private final class CandidateTask[A: ClassTag](src: Int, dst: Int, q: HcQuery, tStop: Array[Long],
                                                 far: Int, nearS: Bfs.Distances,
                                                 nearT: Bfs.Distances, attr: Row => A)
      extends Bfs.Task[(Array[Long], Array[Long], Array[A])] {
    def apply(ctx: TaskContext, it: Iterator[Row]): (Array[Long], Array[Long], Array[A]) = {
      val (us, vs, as) = (new mutable.ArrayBuilder.ofLong, new mutable.ArrayBuilder.ofLong,
        mutable.ArrayBuilder.make[A])
      while (it.hasNext) {
        val r = it.next()
        val u = Bfs.id(r, src)
        val v = Bfs.id(r, dst)
        if (u != q.t && !Bfs.has(tStop, v) && nearS(u, far) + 1 + nearT(v, far) <= q.k) {
          us.addOne(u)
          vs.addOne(v)
          as += attr(r)
        }
      }
      (us.result(), vs.result(), as.result())
    }
  }

  /** The edges of `edges` that can lie on a path of `q`, each with its
    * `attr(row)`, in ⌈k/2⌉ Spark jobs: the Spark part of both the index
    * ([[collect]]) and BC-DFS's relation ([[repro.baseline.BcDfs]]).
    *
    * The searches from `s`, never expanding `t`, and to `t`, never expanding
    * `tStop`, meet in the middle: the fused BFS ([[Bfs.search]] with
    * [[Bfs.sparkHop]]) runs j = ⌊(k − 1)/2⌋ hops. Its distances, or j + 1
    * where it did not reach a vertex, are lower bounds `lbS` and `lbT` of
    * the true `dS` and `dT`. One more job ([[CandidateTask]]) returns the
    * edges `(u, v)` with `u != t`, `v` not in `tStop` and
    * `lbS(u) + 1 + lbT(v) <= k`; j is the least radius at which an edge
    * between two unreached vertices fails that test (2(j + 1) + 1 > k).
    *
    * Take `u` with `dS(u) + dT(u) <= k`, and `(w, x)` on a shortest s→u or
    * u→t path: `dS(w) + 1 + dT(x) <= dS(u) + dT(u) <= k`, so `(w, x)` is a
    * candidate. Searches over the candidates, or any superset of them, with
    * the same stop sets are thus exact on `u`, and never below the true
    * distances elsewhere.
    */
  private[repro] def candidates[A: ClassTag](edges: Bfs.Edges, q: HcQuery, tStop: Set[Long])(
      attr: Row => A): (Array[Long], Array[Long], Array[A]) = {
    val j = (q.k - 1) / 2
    val (nearS, nearT) = Bfs.search(Bfs.sparkHop(edges), Some(q.s), Some(q.t), j,
      sStop = Set(q.t), tStop = tStop)
    val found = edges.run(new CandidateTask(edges.src, edges.dst, q, tStop.toArray.sorted, j + 1,
      new Bfs.Distances(nearS), new Bfs.Distances(nearT), attr))
    (Bfs.concat(found.map(_._1)), Bfs.concat(found.map(_._2)), Bfs.concat(found.map(_._3)))
  }

  /** Builds the index for `q` with one slot per distinct `(src, dst,
    * attr(row))` of the rows of `edges`: [[candidates]] with `tStop = {s}`,
    * then [[fromCandidates]]. */
  private[core] def collect[A: Ordering: ClassTag](edges: Bfs.Edges, q: HcQuery)(
      attr: Row => A): LightIndex[A] = {
    val t0 = System.nanoTime()
    val (src, dst, attrs) = candidates(edges, q, Set(q.s))(attr)
    fromCandidates(src, dst, attrs, q).copy(buildMs = (System.nanoTime() - t0) / 1e6)
  }

  /** The driver finish, with no Spark: the index of `q` (`buildMs` 0) over
    * `src(i) -> dst(i)` with `attr(i)`, any superset of the [[candidates]]
    * with `tStop = {s}`, the whole edge list too. Both searches run k hops
    * over the edges numbered densely ([[Bfs.Local]]), exact on X (and on
    * `ds(t)` and `dt(s)`), and the edges `(u, v)` with `u` reached from s,
    * `v` reached to t, `u != t`, `v != s` and `ds(u) + 1 + dt(v) <= k` are
    * kept: the candidate job's own test, with exact distances. Both ends of
    * such an edge are in X. The forward search reaches `u` within k − 1 hops
    * and expands it (it is not t), over this very edge, so
    * `ds(v) <= ds(u) + 1`; the backward search likewise expands `v` (not s),
    * so `dt(u) <= dt(v) + 1`. Then `ds(u) + dt(u)` and `ds(v) + dt(v)` are
    * both at most `ds(u) + 1 + dt(v) <= k`. The kept edges are counted
    * first and then copied into arrays of that size. */
  private[repro] def fromCandidates[A: Ordering: ClassTag](src: Array[Long], dst: Array[Long],
      attr: Array[A], q: HcQuery): LightIndex[A] = {
    val g = new Bfs.Local(src, dst)
    val ds = g.forward(q.s, q.k, stop = Some(q.t))
    val dt = g.backward(q.t, q.k, stop = Some(q.s))
    val s = g.vertex(q.s)
    val t = g.vertex(q.t)
    def kept(i: Int): Boolean = {
      val u = g.from(i)
      val v = g.to(i)
      u != t && v != s && ds(u) >= 0 && dt(v) >= 0 && ds(u) + 1 + dt(v) <= q.k
    }
    var n = 0
    var i = 0
    while (i < src.length) { if (kept(i)) n += 1; i += 1 }
    val (us, vs, dts, as) = (new Array[Long](n), new Array[Long](n), new Array[Int](n), new Array[A](n))
    n = 0
    i = 0
    while (i < src.length) {
      if (kept(i)) { us(n) = src(i); vs(n) = dst(i); dts(n) = dt(g.to(i)); as(n) = attr(i); n += 1 }
      i += 1
    }
    val local = Adjacency(us, vs, dts, as)
    val (xs, xt) = (new Array[Int](local.vertexCount), new Array[Int](local.vertexCount))
    i = 0
    while (i < local.vertexCount) {
      val x = g.vertex(local.ids(i))
      xs(i) = ds(x)
      xt(i) = dt(x)
      i += 1
    }
    LightIndex(q, 0.0, local, xs, xt)
  }
}
