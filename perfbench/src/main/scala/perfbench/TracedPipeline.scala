package perfbench

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{LongType, StructField, StructType}

import repro.blocking.{NameBlocking, TokenBlocking}
import repro.core.{Evaluation, MatchingRules, MinoanERConfig, Scores}
import repro.graph.{BlockingGraph, DisjunctiveBlockingGraph, NeighborSimilarity, ValueSimilarity}
import repro.harness.Tables
import repro.kb.{KBModel, NameDiscovery, RelationImportance, Tokenizer}

/** `MinoanER.resolve` re-run one stage at a time through the layers'
  * public functions, in the order of `BlockingGraph.build` and
  * `MinoanER.matchGraph`, forcing each stage's output inside its span so
  * the stage's Spark work is attributed to it. A stage's output is forced
  * the way the pipeline forces its graph and rule outputs: an eager local
  * checkpoint, which also cuts the lineage later stages analyze. Its row
  * count is one more (cheap) job of the span.
  */
object TracedPipeline {

  /** The match set with its restricted scores, the purging outcome, and
    * the number of R1-R3 matches R4 filtered.
    */
  final case class Result(
      matches: Array[(Long, Long)],
      scores: Scores,
      purge: TokenBlocking.PurgeStats,
      r4In: Long)

  def run(b: Tables.Bundle, cfg: MinoanERConfig, tr: StageTracer): Result = {
    def force(df: DataFrame): (DataFrame, Long) = {
      val c = df.localCheckpoint(true)
      (c, c.count())
    }
    def force2(a: DataFrame, b: DataFrame): ((DataFrame, DataFrame), Long) = {
      val (ca, na) = force(a); val (cb, nb) = force(b)
      ((ca, cb), na + nb)
    }
    val (kb1, kb2) = (b.kb1, b.kb2)

    // ---- Algorithm 1: the pruned disjunctive blocking graph ----
    val (names1, names2) = tr.span("kb.names")(
      force2(NameDiscovery.names(kb1, cfg.k), NameDiscovery.names(kb2, cfg.k)))
    val (et1, et2) = tr.span("kb.tokens")(
      force2(Tokenizer.entityTokens(kb1), Tokenizer.entityTokens(kb2)))
    val (inN1, inN2) = tr.span("kb.in_neighbors")(
      force2(RelationImportance.topInNeighbors(kb1, cfg.n),
             RelationImportance.topInNeighbors(kb2, cfg.n)))
    val alpha = tr.span("blocking.alpha")(force(NameBlocking.alphaEdges(names1, names2)))
    val (blocks, purge) = tr.span("blocking.purge") {
      val (kept, stats) = TokenBlocking.purgedSharedBlocks(et1, et2)
      ((kept, stats), stats.keptBlocks)
    }
    val beta = tr.span("graph.beta")(force(ValueSimilarity.betaPairs(et1, et2, blocks)))
    val valueEdges = tr.span("graph.beta_topk")(
      force(BlockingGraph.topKDirected(beta, "beta", cfg.bigK)))
    val retained = tr.span("graph.retained")(
      force(BlockingGraph.retainedBetaPairs(valueEdges, kb1)))
    val gamma = tr.span("graph.gamma")(
      force(NeighborSimilarity.gammaPairs(retained, inN1, inN2)))
    val neighborEdges = tr.span("graph.gamma_topk")(
      force(BlockingGraph.topKDirected(gamma, "gamma", cfg.bigK)))
    val g = DisjunctiveBlockingGraph(alpha, valueEdges, neighborEdges)

    // ---- Algorithm 2: rules R1-R4 (cascade as in MinoanER.matchGraph) ----
    val spark = kb1.sparkSession
    val schema = StructType(Seq(StructField("e1", LongType), StructField("e2", LongType)))
    val empty = spark.createDataFrame(spark.sparkContext.emptyRDD[Row], schema)
    val (m1, matched1) = tr.span("core.r1") {
      val (m, n) = force(empty.union(MatchingRules.r1(g)).distinct())
      ((m, MatchingRules.matchedEntities(m).localCheckpoint(true)), n)
    }
    val (m2, matched2, e1) = tr.span("core.r2") {
      val e1 = KBModel.entities(kb1).cache()
      val e2 = KBModel.entities(kb2)
      val smaller = if (e1.count() <= e2.count()) e1 else e2
      val (m, n) = force(m1.union(MatchingRules.r2(g, smaller, e1, matched1)).distinct())
      ((m, MatchingRules.matchedEntities(m).localCheckpoint(true), e1), n)
    }
    val (m3, r4In) = tr.span("core.r3") {
      val (m, n) = force(
        m2.union(MatchingRules.r3(g, cfg.theta, e1, matched2)).distinct())
      ((m, n), n)
    }
    val matches = tr.span("core.r4") {
      val out = MatchingRules.r4(g, m3).select("e1", "e2").distinct()
        .collect().map(r => (r.getLong(0), r.getLong(1)))
      (out, out.length.toLong)
    }
    val scores = tr.span("core.evaluate") {
      val pairs = spark.createDataFrame(matches.toSeq).toDF("e1", "e2")
      val s = Evaluation.scoreRestricted(pairs, b.truth)
      (s, s.returned)
    }
    Result(matches, scores, purge, r4In)
  }
}
