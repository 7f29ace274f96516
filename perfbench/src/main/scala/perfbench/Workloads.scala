package perfbench

import repro.core.EnumConfig

/** One benchmark workload: a graph analog, a hop bound and a query class.
  *
  * @param targetResults the run's query is the candidate (drawn by the
  *                      paper's rule) whose exact result count is nearest
  *                      this value, so that every seed gets a query of the
  *                      same size class and per-query rates stay comparable
  *                      across seeds
  */
final case class Workload(name: String, graph: GraphSpec, k: Int, targetResults: Long)

object Workloads {

  /** Candidate query pairs drawn per seed. */
  val candidates = 64

  /** The paper's 120 s budget scaled to 10 s, with the program's default
    * 200 000-row cap, both passed explicitly. */
  val config: EnumConfig = EnumConfig(
    timeBudgetMs = 10000L, responseTarget = 1000L, collectPaths = false, maxLevelRows = 200000)

  /** The program's `ep` analog (Table 2 at ~1/100), and its `up` analog at
    * a further 1/8 (the full one is 40 000 V, 176 000 E). */
  val ep: GraphSpec = GraphSpec("ep", vertices = 750, edges = 5080, alpha = 2.2)
  val up: GraphSpec = GraphSpec("up", vertices = 5000, edges = 22000, alpha = 1.8)

  /** Why these two: README.md, "Workloads". On both, T-hat stays below
    * tau, so `PathEnum.run` takes DFS(prelim) and never runs the full DP. */
  val all: Seq[Workload] = Seq(
    // Dense hub graph: ~500 results from an index of ~9% of the edges; every
    // layer runs one more level than on up-k3, and the enumerators hold
    // ~1000x the partial rows.
    Workload("ep-k4", ep, k = 4, targetResults = 500),
    // Sparser graph with 4x the edges: 2 results from an index of ~5 edges.
    // Next to nothing to enumerate, so the time is each layer's per-level
    // Spark jobs, BFS and index joins over the larger graph included.
    Workload("up-k3", up, k = 3, targetResults = 2),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}
