package repro.blocking

import repro.{SparkSpec, TestKBs}
import repro.core.MinoanERConfig

class BlockStatisticsSpec extends SparkSpec {

  import spark.implicits._

  private lazy val figure1 = PreparedPair(TestKBs.kb1(spark), TestKBs.kb2(spark), MinoanERConfig())
  private lazy val stats = BlockStatistics.compute(figure1, TestKBs.truth(spark))

  test("figure-1 blocking covers all three ground-truth matches") {
    assert(stats.coveredMatches === 3)
    assert(stats.recall === 100.0)
  }

  test("cartesian is |E1|*|E2|") {
    assert(stats.cartesian === 12.0)
  }

  test("precision is covered matches over total comparisons (percent)") {
    val expected = 100.0 * stats.coveredMatches /
      (stats.nameComparisons + stats.tokenComparisons)
    assert(math.abs(stats.precision - expected) < 1e-9)
  }

  test("f1 is the harmonic mean of precision and recall") {
    val f = 2 * stats.precision * stats.recall / (stats.precision + stats.recall)
    assert(math.abs(stats.f1 - f) < 1e-9)
  }

  test("comparisons aggregate block cardinalities") {
    assert(stats.tokenComparisons > 0)
    assert(stats.nameComparisons > 0)
  }

  test("empty truth gives zero recall without dividing by zero") {
    val emptyTruth = Seq.empty[(Long, Long)].toDF("id1", "id2")
    val s = BlockStatistics.compute(figure1, emptyTruth)
    assert(s.recall === 0.0)
    assert(s.coveredMatches === 0)
  }

  test("a match covered only by name blocking still counts as covered") {
    // two entities with a shared unique name but zero shared tokens after
    // removing the name token: name "qq11" vs decorated "QQ-11."
    val kb1 = repro.kb.KBModel.fromRows(spark, Seq(
      (1L, "label", "qq11", None), (1L, "x", "alpha beta", None)))
    val kb2 = repro.kb.KBModel.fromRows(spark, Seq(
      (101L, "name", "QQ-11.", None), (101L, "y", "gamma delta", None)))
    val truth = Seq((1L, 101L)).toDF("id1", "id2")
    val s = BlockStatistics.compute(PreparedPair(kb1, kb2, MinoanERConfig(k = 1)), truth)
    assert(s.coveredMatches === 1)
  }
}
