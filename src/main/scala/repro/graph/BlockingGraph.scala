package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.kb.KBModel
import repro.blocking.{NameBlocking, PreparedPair}

/** The pruned, directed disjunctive blocking graph (paper §3.2–3.3).
  *
  * Edge evidence is kept in three DataFrames (the graph is a conceptual
  * model — the paper §3.3 likewise materializes only inverted-index-derived
  * tables):
  *
  *  - `alphaEdges`    (e1, e2): 1×1 name-block pairs. Name evidence is
  *                    undirected; both directions are implied.
  *  - `valueEdges`    (src, dst, beta, rank): per node, the top-K out-edges
  *                    by β (rank 1 = best). Contains edges in both
  *                    directions (src ∈ E1 and src ∈ E2).
  *  - `neighborEdges` (src, dst, gamma, rank): per node, top-K by γ.
  */
final case class DisjunctiveBlockingGraph(
    alphaEdges: DataFrame,
    valueEdges: DataFrame,
    neighborEdges: DataFrame) {

  /** All directed edges of the pruned graph (for the reciprocity rule R4).
    * Output: (src, dst), distinct.
    */
  def directedEdges: DataFrame = {
    val a = alphaEdges.select(col("e1") as "src", col("e2") as "dst")
      .union(alphaEdges.select(col("e2") as "src", col("e1") as "dst"))
    a.union(valueEdges.select("src", "dst"))
      .union(neighborEdges.select("src", "dst"))
      .distinct()
  }

  /** Materialize the three edge frames and truncate their lineage
    * (eager localCheckpoint). The graph construction plan is deep (token
    * explosion → purging → three-way join → windows → γ propagation →
    * windows); re-analyzing it for every downstream action dominates
    * wall-clock time on the driver, so the pipeline cuts it here once.
    */
  def materialize(): DisjunctiveBlockingGraph =
    DisjunctiveBlockingGraph(
      alphaEdges.localCheckpoint(true),
      valueEdges.localCheckpoint(true),
      neighborEdges.localCheckpoint(true))
}

object BlockingGraph {

  /** Directed top-K pruning of symmetric weighted pairs (paper §3.3): every
    * undirected edge is considered as two directed ones and each node keeps
    * its K best out-edges.
    *
    * @param pairs (e1, e2, w) with e1 ∈ KB1, e2 ∈ KB2
    * @return (src, dst, w, rank) — both directions, rank per src
    */
  def topKDirected(pairs: DataFrame, weightCol: String, k: Int): DataFrame = {
    val out = pairs.select(col("e1") as "src", col("e2") as "dst", col(weightCol))
    val in = pairs.select(col("e2") as "src", col("e1") as "dst", col(weightCol))
    val w = Window.partitionBy("src").orderBy(col(weightCol).desc, col("dst"))
    out.union(in)
      .withColumn("rank", row_number().over(w))
      .filter(col("rank") <= k)
  }

  /** Build the pruned disjunctive blocking graph of a prepared KB pair
    * (Algorithm 1).
    *
    * All three evidence types are computed from cheap inverted indices:
    * name blocks (α), purged token blocks (β), and the reversed top-N
    * neighbor lists applied to the retained β edges (γ).
    */
  def build(p: PreparedPair): DisjunctiveBlockingGraph = {
    // ---- Name evidence (Alg 1 lines 5-9) ----
    val alpha = NameBlocking.alphaEdges(p.names1, p.names2)

    // ---- Value evidence (Alg 1 lines 10-19) ----
    val valueEdges = topKDirected(p.betaPairs, "beta", p.cfg.bigK).cache()

    // ---- Neighbor evidence (Alg 1 lines 20-33) ----
    // Undirected retained β pairs: union of both directions, deduplicated,
    // oriented back to (e1 ∈ KB1, e2 ∈ KB2) via the edge's origin.
    val retained = retainedBetaPairs(valueEdges, p.kb1)
    val gamma = NeighborSimilarity.gammaPairs(retained, p.inNeighbors1, p.inNeighbors2)
    val neighborEdges = topKDirected(gamma, "gamma", p.cfg.bigK)

    DisjunctiveBlockingGraph(alpha, valueEdges, neighborEdges)
  }

  /** Re-orient the directed, pruned value edges into distinct undirected
    * pairs (e1 ∈ KB1, e2 ∈ KB2, beta).
    */
  def retainedBetaPairs(valueEdges: DataFrame, kb1: DataFrame): DataFrame = {
    val e1Ids = broadcast(KBModel.entities(kb1).select(col("entity") as "src"))
    val fromE1 = valueEdges.join(e1Ids, "src")
      .select(col("src") as "e1", col("dst") as "e2", col("beta"))
    val fromE2 = valueEdges.join(e1Ids, Seq("src"), "left_anti")
      .select(col("dst") as "e1", col("src") as "e2", col("beta"))
    fromE1.union(fromE2).distinct()
  }
}
