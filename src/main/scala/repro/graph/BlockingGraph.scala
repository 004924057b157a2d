package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.kb.{KBModel, NameDiscovery, RelationImportance, Tokenizer}
import repro.blocking.{NameBlocking, TokenBlocking}
import repro.core.MinoanERConfig

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

  def unpersist(): Unit = {
    alphaEdges.unpersist(); valueEdges.unpersist(); neighborEdges.unpersist()
  }
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

  /** Build the pruned disjunctive blocking graph of two KBs (Algorithm 1).
    *
    * All three evidence types are computed from cheap inverted indices:
    * name blocks (α), purged token blocks (β), and the reversed top-N
    * neighbor lists applied to the retained β edges (γ).
    */
  def build(kb1in: DataFrame, kb2in: DataFrame, cfg: MinoanERConfig): DisjunctiveBlockingGraph = {
    // every stage below scans the KBs — cache the inputs for the build
    val kb1 = kb1in.cache()
    val kb2 = kb2in.cache()
    // one statistics pass per KB feeds name discovery and relation importance
    val s1 = KBModel.summary(kb1)
    val s2 = KBModel.summary(kb2)
    // ---- Name evidence (Alg 1 lines 5-9) ----
    val names1 = NameDiscovery.names(kb1, s1, cfg.k)
    val names2 = NameDiscovery.names(kb2, s2, cfg.k)
    val alpha = NameBlocking.alphaEdges(names1, names2)

    // ---- Value evidence (Alg 1 lines 10-19) ----
    val et1 = Tokenizer.entityTokens(kb1).cache()
    val et2 = Tokenizer.entityTokens(kb2).cache()
    val (blocks, _) = TokenBlocking.purgedSharedBlocks(et1, et2)
    val beta = ValueSimilarity.betaPairs(et1, et2, blocks)
    val valueEdges = topKDirected(beta, "beta", cfg.bigK).cache()

    // ---- Neighbor evidence (Alg 1 lines 20-33) ----
    // Undirected retained β pairs: union of both directions, deduplicated,
    // oriented back to (e1 ∈ KB1, e2 ∈ KB2) via the edge's origin.
    val retained = retainedBetaPairs(valueEdges, kb1)
    val inN1 = RelationImportance.topInNeighbors(kb1, s1, cfg.n)
    val inN2 = RelationImportance.topInNeighbors(kb2, s2, cfg.n)
    val gamma = NeighborSimilarity.gammaPairs(retained, inN1, inN2)
    val neighborEdges = topKDirected(gamma, "gamma", cfg.bigK)

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
