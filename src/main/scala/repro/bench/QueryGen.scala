package repro.bench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.Bfs
import scala.util.Random

/** Query workload generator (Section 7.1 "Queries").
  *
  * The paper's default (and hardest) query set draws both endpoints from
  * `V'`, the top 10% of vertices by degree, uniformly at random, keeping
  * only pairs with `dist(s, t) <= 3` so every query has at least one result.
  * We reproduce that: total (in+out) degree ranking, top-10% cut, seeded
  * uniform sampling, and a 3-hop BFS reachability check per candidate `s`.
  */
object QueryGen {

  /** Vertices in the top `frac` fraction by total degree, descending. */
  def topDegreeVertices(edges: DataFrame, frac: Double = 0.1): Seq[Long] = {
    val deg = edges.select(col("src").as("v"))
      .union(edges.select(col("dst").as("v")))
      .groupBy("v").count()
      .orderBy(col("count").desc, col("v"))
    val n = math.max(1L, (deg.count() * frac).toLong)
    deg.limit(n.toInt).collect().map(_.getLong(0)).toSeq
  }

  /** Sample `n` queries (s, t) with s, t in V', s != t, 1 <= dist(s,t) <= 3. */
  def queries(edges: DataFrame, n: Int, seed: Long = 42): Seq[(Long, Long)] = {
    val vPrime = topDegreeVertices(edges)
    val vSet = vPrime.toSet
    val rng = new Random(seed)
    val shuffled = rng.shuffle(vPrime)
    val out = scala.collection.mutable.ListBuffer.empty[(Long, Long)]
    val it = Iterator.continually(shuffled).flatten // cycle if first pass short
    var attempts = 0
    while (out.size < n && attempts < 10 * shuffled.size + 100) {
      val s = it.next()
      attempts += 1
      val within3 = Bfs.distanceMap(edges, s, 3)
      val cand = within3.keysIterator
        .filter(v => v != s && vSet.contains(v) && within3(v) >= 1).toVector
      if (cand.nonEmpty) {
        val t = cand(rng.nextInt(cand.size))
        if (!out.contains((s, t))) out += ((s, t))
      }
    }
    require(out.size == n, s"could only generate ${out.size}/$n queries")
    out.toSeq
  }
}
