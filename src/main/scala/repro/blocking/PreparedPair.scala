package repro.blocking

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

import repro.core.MinoanERConfig
import repro.graph.ValueSimilarity
import repro.kb.{KBModel, NameDiscovery, RelationImportance, Tokenizer}
import KBModel.KBSummary
import TokenBlocking.PurgeStats

/** The per-pair inputs of the blocking graph (Algorithm 1), each computed
  * once: the per-KB statistics pass, names (top-`k` attributes), entity
  * tokens, the purged shared token blocks, the pairs blocked together, and
  * the top-`n` in-neighbors. The graph, Table 2, BSL and the iterative
  * baselines all read them from here.
  *
  * Everything is lazy, so a consumer pays only for what it reads. The
  * caller caches `kb1` and `kb2`, which most artifacts read. The entity
  * tokens and the shared token blocks are cached here (the latter by Block
  * Purging); [[unpersist]] releases them.
  */
final case class PreparedPair(kb1: DataFrame, kb2: DataFrame, cfg: MinoanERConfig) {
  lazy val Seq(summary1: KBSummary, summary2: KBSummary) = KBModel.summaries(kb1, kb2)

  /** (entity, name) of each KB. */
  lazy val names1: DataFrame = NameDiscovery.names(kb1, summary1, cfg.k)
  lazy val names2: DataFrame = NameDiscovery.names(kb2, summary2, cfg.k)

  /** α edges (e1, e2), the pairs of 1×1 name blocks, checkpointed: the
    * graph and the iterative baselines' name seeds read them.
    */
  lazy val alphaEdges: DataFrame = NameBlocking.alphaEdges(names1, names2).localCheckpoint(true)

  /** (entity, token) of each KB. */
  lazy val tokens1: DataFrame = Tokenizer.entityTokens(kb1).cache()
  lazy val tokens2: DataFrame = Tokenizer.entityTokens(kb2).cache()

  private lazy val sharedBlocks = TokenBlocking.sharedTokenBlocks(tokens1, tokens2)

  /** Purged shared token blocks (token, ef1, ef2, comparisons). */
  lazy val (blocks: DataFrame, purge: PurgeStats) = TokenBlocking.purgedBlocks(sharedBlocks)

  /** (e1, e2, beta): every pair sharing a retained token. */
  lazy val betaPairs: DataFrame = ValueSimilarity.betaPairs(tokens1, tokens2, blocks)

  /** (e1, e2): every pair sharing a retained token or a name, i.e. the
    * pairs of the unpruned blocking graph that carry value or name
    * evidence (neighbor-only pairs are left out).
    */
  lazy val candidatePairs: DataFrame = {
    val sharedNames = names1.select(col("entity") as "e1", col("name"))
      .join(names2.select(col("entity") as "e2", col("name")), "name")
      .select("e1", "e2")
    betaPairs.select("e1", "e2").union(sharedNames).distinct()
  }

  /** (entity, inNeighbor) of each KB. */
  lazy val inNeighbors1: DataFrame = RelationImportance.topInNeighbors(kb1, summary1, cfg.n)
  lazy val inNeighbors2: DataFrame = RelationImportance.topInNeighbors(kb2, summary2, cfg.n)

  /** Release the cached tokens and token blocks. */
  def unpersist(): Unit = {
    tokens1.unpersist(); tokens2.unpersist(); sharedBlocks.unpersist()
  }
}
