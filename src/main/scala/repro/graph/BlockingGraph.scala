package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.blocking.PreparedPair

/** The pruned, directed disjunctive blocking graph (paper §3.2–3.3).
  *
  * Edge evidence is kept in three DataFrames (the graph is a conceptual
  * model — the paper §3.3 likewise materializes only inverted-index-derived
  * tables):
  *
  *  - `alphaEdges`    (e1, e2): 1×1 name-block pairs, distinct. Name
  *                    evidence is undirected; both directions are implied.
  *  - `valueEdges`    (src, dst, beta, fromKB1): per node, the top-K
  *                    out-edges by β. Contains edges in both directions;
  *                    `fromKB1` is true where src ∈ E1.
  *  - `neighborEdges` (src, dst, gamma, fromKB1): per node, top-K by γ.
  */
final case class DisjunctiveBlockingGraph(
    alphaEdges: DataFrame,
    valueEdges: DataFrame,
    neighborEdges: DataFrame) {

  /** All directed edges of the pruned graph (for the reciprocity rule R4).
    * Output: (src, dst), with an edge carrying several evidence types
    * listed once per type: R4 reads it only through semi-joins.
    */
  def directedEdges: DataFrame =
    alphaEdges.select(col("e1") as "src", col("e2") as "dst")
      .union(alphaEdges.select(col("e2") as "src", col("e1") as "dst"))
      .union(valueEdges.select("src", "dst"))
      .union(neighborEdges.select("src", "dst"))
}

object BlockingGraph {

  /** Directed top-K pruning of symmetric weighted pairs (paper §3.3): every
    * undirected edge is considered as two directed ones and each node keeps
    * its K best out-edges (ties broken by `dst`). Each pair row yields both
    * directions, so `pairs` is evaluated once. Each edge keeps the side of
    * its source, as `fromKB1`.
    *
    * @param pairs (e1, e2, w) with e1 ∈ KB1, e2 ∈ KB2
    * @return (src, dst, w, fromKB1) — both directions
    */
  def topKDirected(pairs: DataFrame, weightCol: String, k: Int): DataFrame = {
    val w = Window.partitionBy("src").orderBy(col(weightCol).desc, col("dst"))
    pairs
      .select(inline(array(
        struct(col("e1") as "src", col("e2") as "dst", col(weightCol), lit(true) as "fromKB1"),
        struct(col("e2") as "src", col("e1") as "dst", col(weightCol), lit(false) as "fromKB1"))))
      .withColumn("rank", row_number().over(w))
      .filter(col("rank") <= k)
      .drop("rank")
  }

  /** Undo [[topKDirected]]'s direction: orient directed (src, dst, fromKB1)
    * edges as (e1 ∈ KB1, e2 ∈ KB2, keep…). Every edge is kept, once.
    */
  def orient(pairs: DataFrame, keep: String*): DataFrame = {
    val fromKB1 = col("fromKB1")
    pairs.select(Seq(
      when(fromKB1, col("src")).otherwise(col("dst")) as "e1",
      when(fromKB1, col("dst")).otherwise(col("src")) as "e2") ++ keep.map(col): _*)
  }

  /** Build the pruned disjunctive blocking graph of a prepared KB pair
    * (Algorithm 1).
    *
    * All three evidence types are computed from cheap inverted indices:
    * name blocks (α), purged token blocks (β), and the reversed top-N
    * neighbor lists applied to the retained β edges (γ). Each edge frame
    * is materialized where it is made (α by the pair), with its lineage
    * truncated (eager localCheckpoint): the construction plans are deep (token explosion →
    * purging → three-way join → windows → γ propagation → windows), and
    * re-analyzing them for every rule would dominate the driver's time.
    * γ reads the checkpointed value edges.
    */
  def build(p: PreparedPair): DisjunctiveBlockingGraph = {
    // ---- Name evidence (Alg 1 lines 5-9) ----
    val alpha = p.alphaEdges

    // ---- Value evidence (Alg 1 lines 10-19) ----
    val valueEdges = topKDirected(p.betaPairs, "beta", p.cfg.bigK).localCheckpoint(true)

    // ---- Neighbor evidence (Alg 1 lines 20-33) ----
    val retained = retainedBetaPairs(valueEdges)
    val gamma = NeighborSimilarity.gammaPairs(retained, p.inNeighbors1, p.inNeighbors2)
    val neighborEdges = topKDirected(gamma, "gamma", p.cfg.bigK).localCheckpoint(true)

    DisjunctiveBlockingGraph(alpha, valueEdges, neighborEdges)
  }

  /** Re-orient the directed, pruned value edges into distinct undirected
    * pairs (e1 ∈ KB1, e2 ∈ KB2, beta): the union of both pruning
    * directions.
    */
  def retainedBetaPairs(valueEdges: DataFrame): DataFrame =
    orient(valueEdges, "beta").distinct()

  // Kept only for perfbench's TracedPipeline, which calls this shape; the
  // edges carry their side, so `kb1` is not read. Deleted with ROADMAP
  // item 1.
  @deprecated("the edges carry their side: use retainedBetaPairs(valueEdges)", "0.1")
  def retainedBetaPairs(valueEdges: DataFrame, kb1: DataFrame): DataFrame =
    retainedBetaPairs(valueEdges)
}
