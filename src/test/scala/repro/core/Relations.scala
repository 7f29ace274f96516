package repro.core

/** The join-based model of Section 3.1 and the full reducer (Algorithm 2),
  * over plain Scala collections.
  *
  * A query `q(s,t,k)` becomes a chain join
  * `Q = R_1(u_0,u_1) ⋈ ... ⋈ R_k(u_{k-1},u_k)` whose relations are derived
  * from the edge list with three properties:
  *   1. `R_1 = {(s,v)}`, `R_k = {(v,t) | v != s} ∪ {(t,t)}`,
  *   2. `R_i = {(v,v') in E(G − {s}) | v != t} ∪ {(t,t)}` for `1 < i < k`,
  *   3. the `(t,t)` self-loop pads paths shorter than k to length-k tuples.
  *
  * Evaluating Q and dropping tuples with duplicate vertices (ignoring the
  * trailing t-padding) yields exactly `P(s,t,k,G)` (Theorem 3.1). This
  * module exists to validate that model and to provide the full-reducer
  * comparison point for the light-weight index (Section 4.1 / Appendix B);
  * the production enumeration paths use [[LightIndex]] instead.
  */
object Relations {

  /** A relation `R_i(u_{i-1}, u_i)` as its set of `(src, dst)` pairs. */
  type Rel = Set[(Long, Long)]

  /** Relations R_1..R_k per the Section 3.1 construction (Alg. 2 lines 1-4). */
  def build(edges: Seq[(Long, Long)], q: HcQuery): Seq[Rel] = {
    val tt = (q.t, q.t)
    val r1 = edges.filter(_._1 == q.s).toSet
    val rk = edges.filter { case (u, v) => v == q.t && u != q.s }.toSet + tt
    val mid = edges.filter { case (u, v) => u != q.s && v != q.s && u != q.t }.toSet + tt
    if (q.k == 2) Seq(r1, rk)
    else r1 +: Seq.fill(q.k - 2)(mid) :+ rk
  }

  /** Full reducer (Alg. 2 lines 5-12): forward then backward semi-join
    * passes remove dangling tuples; afterwards every remaining tuple joins
    * into at least one full result (Proposition 4.2).
    */
  def fullReduce(rels: Seq[Rel]): Seq[Rel] = {
    val fwd = rels.tail.scanLeft(rels.head) { (prev, r) =>
      val ends = prev.map(_._2)
      r.filter(e => ends(e._1))
    }
    fwd.init.scanRight(fwd.last) { (r, next) =>
      val starts = next.map(_._1)
      r.filter(e => starts(e._2))
    }
  }

  /** Evaluate the chain join left-to-right and keep simple paths only, with
    * the trailing t-padding stripped. Used by tests to validate Theorem 3.1.
    */
  def evaluate(rels: Seq[Rel], q: HcQuery): Set[List[Long]] = {
    val first = rels.head.toSeq.map { case (u, v) => Vector(u, v) }
    val joined = rels.tail.foldLeft(first) { (acc, r) =>
      val next = r.groupMap(_._1)(_._2)
      acc.flatMap(p => next.getOrElse(p.last, Set.empty[Long]).map(p :+ _))
    }
    // Strip the trailing t-padding, then keep tuples that are simple paths.
    joined.map(p => p.take(p.indexOf(q.t) + 1).toList)
      .filter(p => p.distinct.size == p.size).toSet
  }
}
