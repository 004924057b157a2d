package repro.kb

import org.apache.spark.sql.DataFrame

import repro.{SparkSpec, TestKBs}
import repro.data.WebKBGen

class KBStatisticsSpec extends SparkSpec {

  private lazy val kb1 = TestKBs.kb1(spark)

  private def stats(kb: DataFrame): KBStats =
    KBStatistics.compute(kb, KBModel.summary(kb), Tokenizer.entityTokens(kb))

  test("entities and triples counted") {
    val s = stats(kb1)
    assert(s.entities === 4)
    assert(s.triples === 10)
  }

  test("attributes counts distinct literal preds") {
    assert(stats(kb1).attributes === 2) // label, comment
  }

  test("relations counts distinct entity-valued preds") {
    assert(stats(kb1).relations === 3)
  }

  test("types counts distinct values of a type-like attribute") {
    val kb = KBModel.fromRows(spark, Seq(
      (1L, "v0:type", "person", None),
      (2L, "v0:type", "place", None),
      (3L, "v0:type", "person", None),
      (1L, "v0:label", "x", None)))
    assert(stats(kb).types === 2)
  }

  test("vocabularies counts distinct pred prefixes") {
    val kb = KBModel.fromRows(spark, Seq(
      (1L, "v0:a", "x", None), (1L, "v1:b", "y", None), (1L, "v0:c", "z", None)))
    assert(stats(kb).vocabularies === 2)
  }

  test("no vocabulary prefixes yields zero vocabularies") {
    assert(stats(kb1).vocabularies === 0)
  }

  test("avgTokens matches the tokenizer average") {
    val s = stats(kb1)
    val avg = Tokenizer.averageTokens(Tokenizer.entityTokens(kb1))
    assert(math.abs(s.avgTokens - avg) < 1e-12)
  }

  test("generated tiny profile reports the configured entity counts") {
    val g = WebKBGen.generate(spark, TestKBs.tinyProfile)
    val s1 = stats(g.kb1)
    val s2 = stats(g.kb2)
    assert(s1.entities === TestKBs.tinyProfile.n1)
    assert(s2.entities === TestKBs.tinyProfile.n2)
    assert(s1.vocabularies <= TestKBs.tinyProfile.vocab1)
    assert(s1.types === TestKBs.tinyProfile.types1)
  }
}
