package repro.baselines

import org.apache.spark.sql.DataFrame

import repro.{SparkSpec, TestKBs}
import repro.blocking.PreparedPair
import repro.core.MinoanERConfig
import repro.data.{DatasetProfile, WebKBGen}
import repro.kb.KBModel

class ParisLiteSpec extends SparkSpec {

  private def paris(kb1: DataFrame, kb2: DataFrame): DataFrame =
    ParisLite.run(spark, PreparedPair(kb1, kb2, MinoanERConfig()))

  test("exact shared unique literal values produce a match") {
    val kb1 = KBModel.fromRows(spark, Seq(
      (1L, "a", "the exact same value", None),
      (2L, "a", "other one", None)))
    val kb2 = KBModel.fromRows(spark, Seq(
      (101L, "b", "the exact same value", None),
      (102L, "b", "something else", None)))
    val m = paris(kb1, kb2).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(m === Set((1L, 101L)))
  }

  test("frequent shared values carry no evidence") {
    val kb1 = KBModel.fromRows(spark,
      (1L to 20L).map(i => (i, "a", "ubiquitous", Option.empty[Long])))
    val kb2 = KBModel.fromRows(spark,
      (101L to 120L).map(i => (i, "b", "ubiquitous", Option.empty[Long])))
    val m = paris(kb1, kb2)
    assert(m.count() === 0)
  }

  test("tokenized-but-not-exact overlap is invisible to PARIS-lite") {
    val kb1 = KBModel.fromRows(spark, Seq((1L, "a", "alpha beta gamma", None)))
    val kb2 = KBModel.fromRows(spark, Seq((101L, "b", "gamma beta alpha", None)))
    val m = paris(kb1, kb2)
    assert(m.count() === 0)
  }

  test("functional relation evidence promotes structurally consistent pairs") {
    // (1,101) and (2,102) match on exact literals; relation `rel`↔`link`
    // aligns from the fully matched fact (2, rel, 1) / (102, link, 101);
    // (3, 103) share no literal and can only match through the aligned
    // functional relation pointing at the matched (1, 101).
    val kb1 = KBModel.fromRows(spark, Seq(
      (1L, "name", "unique seed", None),
      (2L, "name", "second seed", None),
      (3L, "name", "only left", None),
      (2L, "rel", "ref:1", Some(1L)),
      (3L, "rel", "ref:1", Some(1L))))
    val kb2 = KBModel.fromRows(spark, Seq(
      (101L, "label", "unique seed", None),
      (102L, "label", "second seed", None),
      (103L, "label", "only right", None),
      (102L, "link", "ref:101", Some(101L)),
      (103L, "link", "ref:101", Some(101L))))
    val m = paris(kb1, kb2).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(m.contains((1L, 101L)))
    assert(m.contains((2L, 102L)))
    assert(m.contains((3L, 103L)))
  }

  test("on the exact-value tiny profile PARIS-lite performs well") {
    val g = WebKBGen.generate(spark, TestKBs.tinyProfile)
    val s = repro.core.Evaluation.scoreRestricted(paris(g.kb1, g.kb2), g.truth)
    assert(s.f1 > 0.7, s"scores: ${s.pct}")
  }

  test("surface-form noise collapses PARIS-lite recall (BBC-style profile)") {
    val noisy = TestKBs.tinyHeterogeneous.copy(pValueNoise = 1.0, pNameDecor2 = 1.0)
    val g = WebKBGen.generate(spark, noisy)
    val s = repro.core.Evaluation.scoreRestricted(paris(g.kb1, g.kb2), g.truth)
    val exact = WebKBGen.generate(spark, TestKBs.tinyProfile)
    val sExact = repro.core.Evaluation.scoreRestricted(paris(exact.kb1, exact.kb2), exact.truth)
    assert(s.recall < sExact.recall, s"noisy ${s.pct} vs exact ${sExact.pct}")
  }

  test("result is a partial 1-1 mapping") {
    val g = WebKBGen.generate(spark, TestKBs.tinyProfile)
    val m = paris(g.kb1, g.kb2).collect().map(r => (r.getLong(0), r.getLong(1)))
    assert(m.map(_._1).distinct.length === m.length)
    assert(m.map(_._2).distinct.length === m.length)
  }

  test("tiny profile: PARIS-lite keeps its match set") {
    val g = WebKBGen.generate(spark, TestKBs.tinyProfile)
    assert(TestKBs.pin(TestKBs.pairs(paris(g.kb1, g.kb2))) === ((46, "6035ca282f7650d4")))
  }

  test("run releases every frame it caches") {
    val g = WebKBGen.generate(spark, TestKBs.tinyProfile.copy(seed = 17))
    g.kb1.cache().count(); g.kb2.cache().count()
    // by id: the context cleaner may drop earlier suites' RDDs meanwhile
    val before = spark.sparkContext.getPersistentRDDs.keySet
    paris(g.kb1, g.kb2).collect()
    assert((spark.sparkContext.getPersistentRDDs.keySet -- before).isEmpty)
    g.kb1.unpersist(); g.kb2.unpersist()
  }

  test("empty KBs produce no matches") {
    val kb1 = KBModel.fromRows(spark, Seq((1L, "a", "x", None)))
    val kb2 = KBModel.fromRows(spark, Seq((101L, "b", "y", None)))
    assert(paris(kb1, kb2).count() === 0)
  }
}
