package repro.core

import org.apache.spark.sql.SparkSession

/** Cost-model cardinalities computed by the full-fledged estimator
  * (Algorithm 5). All counts are **walk** counts over the padded join model,
  * which is exactly what Equations 6/7 compute.
  *
  * @param forward  f(i) = |Q[0:i]| — walks from s of length i (with padding),
  *                 for i = 0..k (f(0) = 1, f(k) = |Q|)
  * @param backward b(i) = |Q[i:k]| — walks from position i to t, i = 0..k
  *                 (b(k) = 1, b(0) = |Q|)
  * @param optMs    time spent running the DP
  */
final case class DpEstimate(forward: Seq[Long], backward: Seq[Long], optMs: Double) {
  val k: Int = forward.length - 1

  /** Cost of the left-deep plan (Alg. 4): T_DFS = Σ_{1<=i<=k} |Q[0:i]|. */
  def tDfs: Long = DpEstimate.sum((1 to k).map(forward))

  /** Cut position i* minimizing |Q[0:i]| + |Q[i:k]| over 1..k-1 (Alg. 5
    * line 11; the endpoints degenerate to the left-deep plan). */
  def bestCut: Int = (1 until k).minBy(i => Math.addExact(forward(i), backward(i)))

  /** Cost of the bushy plan cut at i* (Section 6.3):
    * T_JOIN = |Q| + Σ_{1<=i<=i*} |Q[0:i]| + Σ_{i*<=i<=k} |Q[i:k]|. */
  def tJoin: Long = {
    val i = bestCut
    DpEstimate.sum(forward(k) +: ((1 to i).map(forward) ++ (i to k).map(backward)))
  }
}

object DpEstimate {
  /** A sum of counts that throws on `Long` overflow, as [[Estimator.full]]
    * does, rather than wrap and flip the plan choice. */
  def sum(xs: Iterable[Long]): Long = xs.foldLeft(0L)(Math.addExact)
}

/** The two-phase cardinality estimation of Section 6.2, on the driver over
  * the index as collected by [[LightIndex.build]] (`index.local`).
  *
  * The preliminary estimator needs only the `(ds, dt)` of the index
  * vertices and the `dt`-sorted slots, and costs O(k x |I|) (Eq. 5). The
  * full-fledged estimator is the dynamic program of Alg. 5 over the same
  * slots; because the index is exact for the query, its level sums are
  * *exact padded-walk counts* (the tests check `forward(k) == backward(0)`
  * and both against a reference counter). Sums overflowing a `Long` throw,
  * here and in the costs of [[DpEstimate]].
  */
object Estimator {

  /** Preliminary estimate T̂ of the search-space size (Equation 5):
    * T̂ = Σ_{0<=i<=k-1} Π_{0<=j<=i} γ̂_j with
    * γ̂_i = avg over v in C_i of |I_t(v, k-i-1)|, the length of the
    * dt-sorted prefix of v's slots.
    */
  def preliminary(spark: SparkSession, index: LightIndex[_]): Double = {
    val k = index.query.k
    val g = index.local
    val (ds, dt) = (index.ds, index.dt)
    val gamma = (0 until k).map { i =>
      var ci, out = 0L
      for (v <- g.ids.indices) if (ds(v) <= i && dt(v) <= k - i) {
        var e = g.first(v)
        while (e < g.end(v) && g.dt(e) <= k - i - 1) e += 1
        ci += 1
        out += e - g.first(v)
      }
      if (ci == 0) 0.0 else out.toDouble / ci
    }
    (0 until k).map(i => (0 to i).map(gamma).product).sum
  }

  /** Full-fledged DP (Algorithm 5): per-level walk counts in both
    * directions over the padded index, O(k x |I|).
    */
  def full(spark: SparkSession, index: LightIndex[_]): DpEstimate = {
    val t0 = System.nanoTime()
    val k = index.query.k
    val g = index.local
    val (ds, dt) = (index.ds, index.dt)
    val t = g.vertex(index.query.t)

    /** Calls `f(v, w)` for every hop `v -> w` into position `p + 1` of a
      * padded walk: the slots of `v in I(p)` in the dt-sorted prefix
      * `I_t(v, k-p-1)`, plus the `(t,t)` padding. */
    def hops(p: Int)(f: (Int, Int) => Unit): Unit =
      for (v <- g.ids.indices) if (ds(v) <= p && dt(v) <= k - p) {
        var e = g.first(v)
        while (e < g.end(v) && g.dt(e) <= k - p - 1) { f(v, g.dst(e)); e += 1 }
        if (v == t) f(t, t)
      }
    def seed(v: Int): Array[Long] = {
      val c = new Array[Long](g.vertexCount)
      if (v >= 0) c(v) = 1L
      c
    }

    // Forward: c_0^0(s) = 1; walks from s reaching v at position i.
    val forward = new Array[Long](k + 1)
    forward(0) = 1L
    var cnt = seed(g.vertex(index.query.s))
    for (p <- 0 until k) {
      val next = new Array[Long](g.vertexCount)
      hops(p)((v, w) => next(w) = Math.addExact(next(w), cnt(v)))
      forward(p + 1) = DpEstimate.sum(next)
      cnt = next
    }

    // Backward: c_k^k(t) = 1; c_k^i(v) = Σ_{v' in I_t(v, k-i-1)} c_k^{i+1}(v').
    val backward = new Array[Long](k + 1)
    backward(k) = 1L
    cnt = seed(t)
    for (p <- (k - 1) to 0 by -1) {
      val prev = new Array[Long](g.vertexCount)
      hops(p)((v, w) => prev(v) = Math.addExact(prev(v), cnt(w)))
      backward(p) = DpEstimate.sum(prev)
      cnt = prev
    }

    DpEstimate(forward.toSeq, backward.toSeq, (System.nanoTime() - t0) / 1e6)
  }
}
