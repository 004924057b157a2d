package repro.blocking

import org.apache.spark.sql.{DataFrame, Row}

import repro.{SparkSpec, TestKBs}
import repro.core.{MinoanER, MinoanERConfig}
import repro.data.WebKBGen
import repro.graph.BlockingGraph
import repro.kb.{KBModel, NameDiscovery, RelationImportance, Tokenizer}

class PreparedPairSpec extends SparkSpec {

  private val cfg = MinoanERConfig()

  private def rows(df: DataFrame): Seq[Row] = df.collect().toSeq.sortBy(_.toString)

  private def assertSame(got: DataFrame, want: DataFrame, what: String): Unit = {
    assert(got.columns.toSeq === want.columns.toSeq, what)
    assert(rows(got) === rows(want), what)
  }

  /** Every artifact of the pair equals what its standalone producer gives. */
  private def assertStandaloneEqual(kb1: DataFrame, kb2: DataFrame): Unit = {
    val p = PreparedPair(kb1, kb2, cfg)
    assert(p.summary1 === KBModel.summary(kb1))
    assert(p.summary2 === KBModel.summary(kb2))
    assertSame(p.names1, NameDiscovery.names(kb1, cfg.k), "names1")
    assertSame(p.names2, NameDiscovery.names(kb2, cfg.k), "names2")
    assertSame(p.alphaEdges, NameBlocking.alphaEdges(
      NameDiscovery.names(kb1, cfg.k), NameDiscovery.names(kb2, cfg.k)), "alphaEdges")
    val et1 = Tokenizer.entityTokens(kb1)
    val et2 = Tokenizer.entityTokens(kb2)
    assertSame(p.tokens1, et1, "tokens1")
    assertSame(p.tokens2, et2, "tokens2")
    val (blocks, purge) = TokenBlocking.purgedSharedBlocks(et1, et2)
    assertSame(p.blocks, blocks, "blocks")
    assert(p.purge === purge)
    assertSame(p.inNeighbors1, RelationImportance.topInNeighbors(kb1, cfg.n), "inNeighbors1")
    assertSame(p.inNeighbors2, RelationImportance.topInNeighbors(kb2, cfg.n), "inNeighbors2")
    p.unpersist()
  }

  test("figure-1: every artifact equals its standalone producer") {
    assertStandaloneEqual(TestKBs.kb1(spark), TestKBs.kb2(spark))
  }

  test("tiny profile: every artifact equals its standalone producer") {
    val g = WebKBGen.generate(spark, TestKBs.tinyProfile)
    assertStandaloneEqual(g.kb1, g.kb2)
  }

  test("a KB without literals gives empty names, tokens, blocks and matches") {
    val noLiterals = KBModel.fromRows(spark, Seq(
      (1L, "knows", "ref:2", Some(2L)), (2L, "knows", "ref:1", Some(1L))))
    val p = PreparedPair(noLiterals, TestKBs.kb2(spark), cfg)
    assert(p.names1.count() === 0)
    assert(p.tokens1.count() === 0)
    assert(p.blocks.count() === 0)
    assert(p.purge === TokenBlocking.PurgeStats(0, 0, 0))
    assert(p.betaPairs.count() === 0)
    assert(p.inNeighbors1.count() === 2)
    val g = BlockingGraph.build(p)
    assert(g.directedEdges.count() === 0)
    assert(MinoanER.matchGraph(g, p).count() === 0)
    p.unpersist()
  }
}
