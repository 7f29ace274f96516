package perfbench

import java.util.SplittableRandom
import scala.collection.mutable

/** Out-adjacency of a digraph over vertex ids `0 until n`, in compressed
  * sparse row form: the successors of `v` are `targets(offsets(v) until
  * offsets(v + 1))`. */
final class Csr(val n: Int, from: Array[Int], to: Array[Int]) {
  val offsets: Array[Int] = {
    val o = new Array[Int](n + 1)
    from.foreach(v => o(v + 1) += 1)
    for (v <- 0 until n) o(v + 1) += o(v)
    o
  }
  val targets: Array[Int] = {
    val next = offsets.clone()
    val out = new Array[Int](to.length)
    for (i <- from.indices) { out(next(from(i))) = to(i); next(from(i)) += 1 }
    out
  }

  /** Hop distances from `source`, at most `maxHops`; -1 where unreached. */
  def bfs(source: Int, maxHops: Int): Array[Int] = {
    val dist = Array.fill(n)(-1)
    dist(source) = 0
    var frontier = Array(source)
    var d = 1
    while (frontier.nonEmpty && d <= maxHops) {
      val next = mutable.ArrayBuilder.make[Int]
      for (v <- frontier; i <- offsets(v) until offsets(v + 1)) {
        val w = targets(i)
        if (dist(w) < 0) { dist(w) = d; next += w }
      }
      frontier = next.result()
      d += 1
    }
    dist
  }
}

/** The edge list of one generated graph: distinct `(src(i), dst(i))` pairs,
  * no self-loops, sorted, vertex ids in `1 .. vertices`. */
final case class Graph(src: Array[Int], dst: Array[Int], vertices: Int) {
  def edgeCount: Int = src.length
  lazy val out: Csr = new Csr(vertices + 1, src, dst)
  lazy val in: Csr = new Csr(vertices + 1, dst, src)

  /** Number of vertices with at least one edge. */
  def activeVertices: Int = (src.iterator ++ dst.iterator).toSet.size

  /** CRC32 of the sorted edge list, so a report names the exact input. */
  def checksum: String = {
    val crc = new java.util.zip.CRC32()
    val buf = java.nio.ByteBuffer.allocate(8)
    for (i <- src.indices) { buf.clear(); buf.putInt(src(i)).putInt(dst(i)); crc.update(buf.array()) }
    f"${crc.getValue}%08x"
  }
}

/** Parameters of a synthetic analog of one of the paper's graphs. */
final case class GraphSpec(name: String, vertices: Int, edges: Int, alpha: Double)

/** In-memory input generation. The benchmark owns its inputs so that they
  * depend only on the workload seed: not on the core count (Spark's
  * `rand` over `spark.range` follows the partition count), and not on the
  * program's own generators, which a change under test may touch. */
object Inputs {

  /** Skewed digraph with the parameters of the program's power-law analogs:
    * both endpoints are drawn as rank `floor(n * u^alpha) + 1`, 1.6 x the
    * target edge count is drawn, self-loops and duplicates are dropped, and
    * a seeded random subset of `spec.edges` pairs is kept. */
  def graph(spec: GraphSpec, seed: Long): Graph = {
    val rng = new SplittableRandom(seed)
    val n = spec.vertices
    def rank(): Int = math.min(n, math.max(1, (math.pow(rng.nextDouble(), spec.alpha) * n).toInt + 1))
    val seen = mutable.LinkedHashSet.empty[Long]
    for (_ <- 0L until (spec.edges * 1.6).toLong) {
      val a = rank(); val b = rank()
      if (a != b) seen += (a.toLong << 32) | b
    }
    val pairs = seen.toArray
    for (i <- pairs.length - 1 to 1 by -1) { // Fisher-Yates, then keep a prefix
      val j = rng.nextInt(i + 1)
      val x = pairs(i); pairs(i) = pairs(j); pairs(j) = x
    }
    val kept = pairs.take(spec.edges).sorted
    Graph(kept.map(p => (p >>> 32).toInt), kept.map(_.toInt), n)
  }

  /** Query endpoints by the paper's rule (Section 7.1): s and t are drawn
    * uniformly from the top 10% of vertices by total degree, with
    * `1 <= dist(s, t) <= 3`. Returns up to `count` distinct pairs. */
  def endpoints(g: Graph, count: Int, seed: Long): Seq[(Int, Int)] = {
    val degree = new Array[Int](g.vertices + 1)
    for (i <- 0 until g.edgeCount) { degree(g.src(i)) += 1; degree(g.dst(i)) += 1 }
    val ranked = (1 to g.vertices).filter(degree(_) > 0).sortBy(v => (-degree(v), v))
    val top = ranked.take(math.max(1, ranked.size / 10))
    val rng = new scala.util.Random(seed)
    val out = mutable.LinkedHashSet.empty[(Int, Int)]
    for (s <- rng.shuffle(top) if out.size < count) {
      val dist = g.out.bfs(s, 3)
      val cand = top.filter(v => v != s && dist(v) >= 1)
      if (cand.nonEmpty) out += ((s, cand(rng.nextInt(cand.size))))
    }
    out.toSeq
  }
}

/** Independent counting reference for the correctness gate: a plain
  * depth-first search over the generated edge list, pruned by the distance
  * to t. It shares no code with the program's index or enumerators. */
object Reference {

  /** Number of simple paths from s to t with at most k edges whose interior
    * avoids s and t, or `limit` if there are at least that many. */
  def count(g: Graph, s: Int, t: Int, k: Int, limit: Long): Long = {
    val toT = g.in.bfs(t, k) // unrestricted distance to t: a valid lower bound
    val onPath = new Array[Boolean](g.vertices + 1)
    onPath(s) = true
    var found = 0L
    def dfs(v: Int, depth: Int): Unit = {
      var i = g.out.offsets(v)
      while (i < g.out.offsets(v + 1) && found < limit) {
        val w = g.out.targets(i)
        if (w == t) found += 1
        else if (!onPath(w) && toT(w) >= 0 && depth + 1 + toT(w) <= k) {
          onPath(w) = true
          dfs(w, depth + 1)
          onPath(w) = false
        }
        i += 1
      }
    }
    if (toT(s) >= 0 && toT(s) <= k) dfs(s, 0)
    math.min(found, limit)
  }
}
