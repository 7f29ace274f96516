package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.graph.GraphGen
import scala.collection.mutable

/** Synthetic analogs of the paper's 15 real-world graphs (Table 2).
  *
  * Scaled ~1/100 linearly; average degree preserved except for the two
  * densest graphs (`da` davg 205.7, `ye` davg 104.5), which are density-
  * capped. The caps were sized for a level-by-level Spark enumerator that
  * no longer exists; they stay so that the tables measured on these analogs
  * stay comparable — see DESIGN.md "Data substitutions". `tm` is the
  * scalability graph and is excluded from the overall comparison, as in the
  * paper.
  */
final case class GraphSpec(
    name: String,
    vertices: Long,
    edgesTarget: Long,
    alpha: Double,
    kind: String,
    seed: Long,
    inTable3: Boolean = true)

object GraphSuite {

  /** Order matches the paper's Table 3 rows. `alpha` is the endpoint skew
    * exponent of [[repro.graph.GraphGen.powerLaw]] (higher = heavier hubs). */
  val specs: Seq[GraphSpec] = Seq(
    GraphSpec("up", 40000, 176000, 1.8, "Citation",       101),
    GraphSpec("db", 40000, 140000, 1.8, "Miscellaneous",  102),
    GraphSpec("gg",  8760,  50000, 2.0, "Web",            103),
    GraphSpec("st",  2820,  23000, 2.0, "Web",            104),
    GraphSpec("tw",  4650,   8350, 2.0, "Miscellaneous",  105),
    GraphSpec("bk",  4160,  30000, 2.0, "Web",            106),
    GraphSpec("tr",  1390,   7400, 2.0, "Interaction",    107),
    GraphSpec("ep",   750,   5080, 2.2, "Social",         108),
    GraphSpec("uk",  1210,   3340, 2.0, "Web",            109),
    GraphSpec("wt", 20000,  50000, 2.0, "Miscellaneous",  110),
    GraphSpec("sl",   820,   9480, 2.2, "Social",         111),
    GraphSpec("lj", 50000, 690000, 2.2, "Social",         112),
    GraphSpec("da",  1690,  50000, 2.0, "Recommendation", 113),
    GraphSpec("ye",   600,  18000, 1.8, "Biological",     114),
    GraphSpec("tm", 100000, 2000000, 2.0, "Miscellaneous", 115, inTable3 = false),
  )

  def spec(name: String): GraphSpec =
    specs.find(_.name == name).getOrElse(sys.error(s"unknown graph $name"))

  private val cache = mutable.Map.empty[String, DataFrame]

  /** Generate (or fetch cached) edges for a spec; persisted + counted.
    * The generator ends in a global `limit`, one partition, so the edges
    * are spread over the session's cores first: a hop of the query path is
    * one task per partition. */
  def edges(spark: SparkSession, s: GraphSpec): DataFrame = synchronized {
    cache.getOrElseUpdate(s.name, {
      val df = GraphGen.powerLaw(spark, s.vertices, s.edgesTarget, s.alpha, s.seed)
        .repartition(spark.sparkContext.defaultParallelism)
        .persist(StorageLevel.MEMORY_AND_DISK)
      df.count()
      df
    })
  }
}
