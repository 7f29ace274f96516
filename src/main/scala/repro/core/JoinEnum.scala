package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.collection.mutable.ArrayBuffer

/** Bushy (join-shaped) enumeration engine — Algorithm 6 as two half-searches
  * plus a hash join, over an [[Adjacency]] collected on the driver.
  *
  * The query is cut at position `cut` (the optimizer's `i*`): `Q[0:cut]` is
  * the set of partial paths from `s` of exactly `cut` hops and `Q[cut:k]`
  * the set of paths from each cut vertex to `t` within the remaining
  * `k - cut` hops, both found by [[LeftDeepEnum.dfs]]. A path that reaches
  * `t` early stands for its `(t,t)` padding to the fixed length of the join
  * model (Section 3.1). The halves are hash-joined on the cut vertex and
  * tuples that are not simple paths are dropped (the paper performs the
  * same validity check "when performing the join operation").
  *
  * Per-half duplicate-vertex checks run during the searches (cheap, prunes
  * walks early); duplicates *across* the halves can only be caught at the
  * join, exactly as in the paper. The row cap bounds each materialized half
  * and the joined results; the time budget is checked as in
  * [[LeftDeepEnum.dfs]], and before the first left-half row is joined and
  * every 1 024th after it.
  */
object JoinEnum {

  /** Expected columns of `edgeRel`: `er_src`, `er_dst`, `er_dt` (no rows
    * with `er_src = t`). `cut` must be in `1 .. k-1`. Collects the relation
    * once, then runs [[search]]. */
  def run(spark: SparkSession, edgeRel: DataFrame, q: HcQuery, cut: Int,
          cfg: EnumConfig = EnumConfig()): EnumResult =
    search(Adjacency.collect(edgeRel), q, cut, cfg)

  /** IDX-JOIN / BC-JOIN over a collected relation. */
  def search(g: Adjacency[_], q: HcQuery, cut: Int, cfg: EnumConfig): EnumResult = {
    require(cut >= 1 && cut < q.k, s"cut must be in [1, k-1], got $cut")
    val t0 = System.nanoTime()
    def elapsedMs: Double = (System.nanoTime() - t0) / 1e6
    val expired = () => elapsedMs >= cfg.timeBudgetMs
    val t = g.vertex(q.t)
    val start = g.vertex(q.s)
    var truncated = false

    /** Appends to `out` the paths of the half `Q[from:to]` from `v` that
      * reach t, or any that end at `to` if `open`; `nodes(d)` counts its
      * partial results of `d + 1` vertices, t-padding included. */
    def half(v: Int, from: Int, to: Int, open: Boolean, nodes: Array[Long],
             out: ArrayBuffer[Array[Int]]): Unit =
      truncated |= !LeftDeepEnum.dfs(g, t, q.k, v, from, to, (), LeftDeepEnum.free, expired,
        nodes) { (path, d, _) =>
        if (path(d) == t) for (j <- d + 1 to to - from) nodes(j) += 1
        if (path(d) == t || open) out += java.util.Arrays.copyOf(path, d + 1)
        out.size < cfg.maxLevelRows
      }
    def peak(nodes: Array[Long]): Long = (1 until nodes.length).map(d => nodes(d) * (d + 1)).max

    val nodesA = new Array[Long](cut + 1)
    val as = ArrayBuffer.empty[Array[Int]]
    if (start >= 0) half(start, 0, cut, open = true, nodesA, as)
    // Q[cut:k] from the distinct cut vertices (Alg. 6 line 3), hashed on them.
    val nodesB = new Array[Long](q.k - cut + 1)
    val bs = ArrayBuffer.empty[Array[Int]]
    val byCut = as.map(_.last).distinct.map { c =>
      val first = bs.size
      half(c, cut, q.k, open = false, nodesB, bs)
      c -> bs.slice(first, bs.size)
    }.toMap

    val onA = new Array[Boolean](g.vertexCount)
    val found = ArrayBuffer.empty[Seq[Long]]
    var n = 0L
    var stop = false
    var row = 0
    val rows = as.iterator
    while (!stop && rows.hasNext) {
      val a = rows.next()
      if ((row & 1023) == 0) stop = expired()
      row += 1
      a.foreach(onA(_) = true)
      for (b <- byCut.getOrElse(a.last, Nil) if !stop && (1 until b.length).forall(i => !onA(b(i)))) {
        n += 1
        if (cfg.collectPaths) found += (a ++ b.drop(1)).map(g.ids(_)).toSeq
        stop = n >= cfg.maxLevelRows
      }
      a.foreach(onA(_) = false)
    }
    // Partial results per level of each half (Table 7): Q[0:cut], held for
    // the join, plus the widest level of Q[cut:k].
    val cells = if (as.isEmpty) peak(nodesA) else as.size.toLong * (cut + 1) + peak(nodesB)
    // The paper reports no response time for join-based methods (results
    // only exist after the final join) — mirror that.
    EnumResult(n, Seq.empty, elapsedMs, None, truncated || stop, cells,
      if (cfg.collectPaths) Some(found.toSeq) else None)
  }
}
