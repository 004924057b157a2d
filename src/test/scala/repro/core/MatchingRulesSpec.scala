package repro.core

import repro.{SparkSpec, TestKBs}
import repro.graph.{BlockingGraph, DisjunctiveBlockingGraph}

class MatchingRulesSpec extends SparkSpec {

  import spark.implicits._

  private def alpha(rows: (Long, Long)*) = rows.toSeq.toDF("e1", "e2")
  private def edges(rows: (Long, Long, Double)*) = {
    val withRank = rows.groupBy(_._1).toSeq.flatMap { case (_, es) =>
      es.sortBy(-_._3).zipWithIndex.map { case ((s, d, w), i) => (s, d, w, i + 1) }
    }
    withRank.toDF("src", "dst", "beta", "rank")
  }
  private def gedges(rows: (Long, Long, Double)*) =
    edges(rows: _*).withColumnRenamed("beta", "gamma")

  private def emptyEdges = edges()
  private def emptyAlpha = alpha()
  /** Empty matched-ENTITY set (the `matched` argument of R2/R3). */
  private def noMatches = Seq.empty[Long].toDF("entity")
  private def ents(ids: Long*) = ids.toSeq.toDF("entity")

  private def collectPairs(df: org.apache.spark.sql.DataFrame): Set[(Long, Long)] =
    df.collect().map(r => (r.getLong(0), r.getLong(1))).toSet

  // ------------------------------------------------------------------ R1

  test("R1 matches every alpha edge") {
    val g = DisjunctiveBlockingGraph(alpha(1L -> 101L, 2L -> 102L), emptyEdges, gedges())
    assert(collectPairs(MatchingRules.r1(g)) === Set((1L, 101L), (2L, 102L)))
  }

  test("R1 on an empty graph matches nothing") {
    val g = DisjunctiveBlockingGraph(emptyAlpha, emptyEdges, gedges())
    assert(MatchingRules.r1(g).count() === 0)
  }

  // ------------------------------------------------------------------ R2

  test("R2 matches the top-beta candidate when beta >= 1") {
    val g = DisjunctiveBlockingGraph(emptyAlpha,
      edges((1L, 101L, 2.0), (1L, 102L, 1.5)), gedges())
    val m = MatchingRules.r2(g, ents(1L), ents(1L), noMatches)
    assert(collectPairs(m) === Set((1L, 101L)))
  }

  test("R2 rejects top candidates with beta < 1") {
    val g = DisjunctiveBlockingGraph(emptyAlpha, edges((1L, 101L, 0.9)), gedges())
    val m = MatchingRules.r2(g, ents(1L), ents(1L), noMatches)
    assert(m.count() === 0)
  }

  test("R2 only scans the smaller KB side") {
    val g = DisjunctiveBlockingGraph(emptyAlpha,
      edges((1L, 101L, 2.0), (101L, 1L, 2.0)), gedges())
    val m = MatchingRules.r2(g, ents(1L), ents(1L), noMatches)
    assert(collectPairs(m) === Set((1L, 101L))) // oriented, single pair
  }

  test("R2 skips entities already matched") {
    val g = DisjunctiveBlockingGraph(emptyAlpha, edges((1L, 101L, 2.0)), gedges())
    val prior = Seq((1L, 150L)).toDF("e1", "e2")
    val m = MatchingRules.r2(g, ents(1L), ents(1L), MatchingRules.matchedEntities(prior))
    assert(m.count() === 0)
  }

  test("R2 skips candidates already matched") {
    val g = DisjunctiveBlockingGraph(emptyAlpha,
      edges((1L, 101L, 2.0), (1L, 102L, 1.2)), gedges())
    val prior = Seq((50L, 101L)).toDF("e1", "e2")
    val m = MatchingRules.r2(g, ents(1L), ents(1L), MatchingRules.matchedEntities(prior))
    assert(collectPairs(m) === Set((1L, 102L)))
  }

  // ------------------------------------------------------------------ R3

  test("R3 matches the top rank-aggregated candidate") {
    // value list of 1: 101 best by beta; neighbor list: 102 best by gamma.
    // theta = 0.6 weighs the value list more.
    val g = DisjunctiveBlockingGraph(emptyAlpha,
      edges((1L, 101L, 0.5), (1L, 102L, 0.2)),
      gedges((1L, 102L, 3.0)))
    val m = MatchingRules.r3(g, theta = 0.6, ents(1L), noMatches)
    // scores: 101: 0.6*2/2 = 0.6 ; 102: 0.6*1/2 + 0.4*1/1 = 0.7
    assert(collectPairs(m).contains((1L, 102L)))
  }

  test("R3 with theta favoring values picks the beta-best candidate") {
    val g = DisjunctiveBlockingGraph(emptyAlpha,
      edges((1L, 101L, 0.5), (1L, 102L, 0.2)),
      gedges((1L, 102L, 3.0)))
    val m = MatchingRules.r3(g, theta = 0.9, ents(1L), noMatches)
    // scores: 101: 0.9 ; 102: 0.45 + 0.1 = 0.55
    val pairs = collectPairs(m)
    assert(pairs.contains((1L, 101L)))
  }

  test("R3 normalized ranks: candidate in both lists accumulates both scores") {
    val g = DisjunctiveBlockingGraph(emptyAlpha,
      edges((1L, 101L, 0.5), (1L, 102L, 0.4)),
      gedges((1L, 101L, 1.0)))
    val m = MatchingRules.r3(g, theta = 0.5, ents(1L), noMatches)
    assert(collectPairs(m).contains((1L, 101L)))
  }

  test("R3 useNeighbors=false ignores the gamma list entirely") {
    val g = DisjunctiveBlockingGraph(emptyAlpha,
      edges((1L, 101L, 0.5), (1L, 102L, 0.2)),
      gedges((1L, 102L, 3.0)))
    val m = MatchingRules.r3(g, theta = 0.6, ents(1L), noMatches, useNeighbors = false)
    assert(collectPairs(m).contains((1L, 101L)))
  }

  test("R3 skips matched sources and candidates") {
    val g = DisjunctiveBlockingGraph(emptyAlpha,
      edges((1L, 101L, 0.5), (2L, 101L, 0.5), (2L, 102L, 0.3)), gedges())
    val prior = Seq((1L, 101L)).toDF("e1", "e2")
    val m = MatchingRules.r3(g, theta = 0.6, ents(1L, 2L), MatchingRules.matchedEntities(prior))
    assert(collectPairs(m) === Set((2L, 102L)))
  }

  test("R3 emits oriented pairs from both KB sides without duplication") {
    val g = DisjunctiveBlockingGraph(emptyAlpha,
      edges((1L, 101L, 0.5), (101L, 1L, 0.5)), gedges())
    val m = MatchingRules.r3(g, theta = 0.6, ents(1L), noMatches)
    // 1 and 101 choose each other: one pair, not two
    assert(m.count() === 1)
    assert(collectPairs(m) === Set((1L, 101L)))
  }

  // ------------------------------------------------------------------ R4

  test("R4 keeps reciprocal matches only") {
    val g = DisjunctiveBlockingGraph(emptyAlpha,
      edges((1L, 101L, 2.0), (101L, 1L, 2.0), (2L, 102L, 2.0)), gedges())
    val m = Seq((1L, 101L), (2L, 102L)).toDF("e1", "e2")
    assert(collectPairs(MatchingRules.r4(g, m)) === Set((1L, 101L)))
  }

  test("R4 counts alpha edges as reciprocal") {
    val g = DisjunctiveBlockingGraph(alpha(1L -> 101L), emptyEdges, gedges())
    val m = Seq((1L, 101L)).toDF("e1", "e2")
    assert(collectPairs(MatchingRules.r4(g, m)) === Set((1L, 101L)))
  }

  test("R4 accepts reciprocity across evidence types (beta one way, gamma back)") {
    val g = DisjunctiveBlockingGraph(emptyAlpha,
      edges((1L, 101L, 2.0)), gedges((101L, 1L, 1.0)))
    val m = Seq((1L, 101L)).toDF("e1", "e2")
    assert(collectPairs(MatchingRules.r4(g, m)) === Set((1L, 101L)))
  }

  // ------------------------------------------------------- orient helper

  test("orient maps src-side membership correctly") {
    val pairs = Seq((1L, 101L), (102L, 2L)).toDF("src", "dst")
    val o = collectPairs(BlockingGraph.orient(pairs, ents(1L, 2L)))
    assert(o === Set((1L, 101L), (2L, 102L)))
  }

  // ------------------------------------------------- figure-1 end-to-end

  test("figure-1: full rule cascade matches all three ground-truth pairs") {
    val kb1 = TestKBs.kb1(spark); val kb2 = TestKBs.kb2(spark)
    val m = MinoanER.resolve(kb1, kb2, MinoanERConfig(k = 2, bigK = 5, n = 3, theta = 0.6))
    val pairs = collectPairs(m)
    assert(pairs.contains((TestKBs.JohnLakeA, TestKBs.JonnyLake))) // R1
    assert(pairs.contains((TestKBs.Bray, TestKBs.Berkshire)))     // R2
    assert(pairs.contains((TestKBs.Restaurant1, TestKBs.Restaurant2))) // R3
  }
}
