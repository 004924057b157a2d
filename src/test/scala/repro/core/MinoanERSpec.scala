package repro.core

import java.security.MessageDigest

import org.apache.spark.JobCounter

import repro.{SparkSpec, TestKBs}
import repro.data.{DatasetProfile, WebKBGen}

class MinoanERSpec extends SparkSpec {

  private lazy val tiny = {
    val g = WebKBGen.generate(spark, TestKBs.tinyProfile)
    g.kb1.cache(); g.kb2.cache(); g
  }
  private lazy val tinyHet = {
    val g = WebKBGen.generate(spark, TestKBs.tinyHeterogeneous)
    g.kb1.cache(); g.kb2.cache(); g
  }
  private lazy val fullMatches = MinoanER.resolve(tiny.kb1, tiny.kb2).cache()

  test("resolve on the strongly-similar tiny profile reaches high F1") {
    val s = Evaluation.scoreRestricted(fullMatches, tiny.truth)
    assert(s.f1 > 0.9, s"scores: ${s.pct}")
  }

  test("resolve on the heterogeneous tiny profile still finds most matches") {
    val m = MinoanER.resolve(tinyHet.kb1, tinyHet.kb2)
    val s = Evaluation.scoreRestricted(m, tinyHet.truth)
    assert(s.f1 > 0.6, s"scores: ${s.pct}")
  }

  test("resolve is deterministic across invocations") {
    val m1 = fullMatches.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val m2 = MinoanER.resolve(tiny.kb1, tiny.kb2).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(m1 === m2)
  }

  test("R1-only variant is a subset of alpha edges and highly precise") {
    val m = MinoanER.resolveVariant(tiny.kb1, tiny.kb2, MinoanERConfig(),
      MinoanER.Variant.R1Only)
    val s = Evaluation.scoreRestricted(m, tiny.truth)
    assert(s.precision > 0.9, s"scores: ${s.pct}")
    assert(s.recall < 1.0)
  }

  test("R2-only variant is precise on strongly similar data") {
    val m = MinoanER.resolveVariant(tiny.kb1, tiny.kb2, MinoanERConfig(),
      MinoanER.Variant.R2Only)
    val s = Evaluation.scoreRestricted(m, tiny.truth)
    assert(s.precision > 0.8, s"scores: ${s.pct}")
  }

  test("R3-only variant recalls most matches") {
    val m = MinoanER.resolveVariant(tiny.kb1, tiny.kb2, MinoanERConfig(),
      MinoanER.Variant.R3Only)
    val s = Evaluation.scoreRestricted(m, tiny.truth)
    assert(s.recall > 0.7, s"scores: ${s.pct}")
  }

  test("NoR4 variant returns a superset of the full variant's matches") {
    val full = fullMatches.collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    val noR4 = MinoanER.resolveVariant(tiny.kb1, tiny.kb2, MinoanERConfig(),
      MinoanER.Variant.NoR4).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(full.subsetOf(noR4))
  }

  test("NoNeighbors variant still runs the full cascade") {
    val m = MinoanER.resolveVariant(tiny.kb1, tiny.kb2, MinoanERConfig(),
      MinoanER.Variant.NoNeighbors)
    val s = Evaluation.scoreRestricted(m, tiny.truth)
    assert(s.f1 > 0.8, s"scores: ${s.pct}")
  }

  test("matches are 1-1 oriented pairs over disjoint id ranges") {
    val rows = fullMatches.collect()
    assert(rows.forall(r => r.getLong(0) < WebKBGen.Off2 && r.getLong(1) >= WebKBGen.Off2))
  }

  test("resolving identical tiny KBs of a profile with itself-style config stays stable") {
    // smoke test for the k/K/N knobs at non-default values
    val m = MinoanER.resolve(tiny.kb1, tiny.kb2, MinoanERConfig(k = 1, bigK = 5, n = 1, theta = 0.5))
    val s = Evaluation.scoreRestricted(m, tiny.truth)
    assert(s.f1 > 0.5, s"scores: ${s.pct}")
  }

  test("restaurant-lite (seed 1): resolve keeps its match set and its Spark job budget") {
    // performance refactors must keep this match set exactly, and must not
    // raise the fixed Spark cost of one resolve above this many jobs
    val g = WebKBGen.generate(spark, DatasetProfile.restaurantLite.copy(seed = 1))
    g.kb1.cache().count(); g.kb2.cache().count()
    val (pairs, jobs) = JobCounter(spark.sparkContext) {
      MinoanER.resolve(g.kb1, g.kb2).collect().map(r => (r.getLong(0), r.getLong(1)))
    }
    val lines = pairs.sorted.map { case (a, b) => s"$a,$b" }.mkString("\n")
    val digest = MessageDigest.getInstance("SHA-256").digest(lines.getBytes("UTF-8"))
      .take(8).map("%02x".format(_)).mkString
    assert(pairs.length === 639)
    assert(digest === "239e7b682b601628")
    info(s"Spark jobs of one resolve: $jobs")
    assert(jobs <= 94L, s"$jobs Spark jobs")
  }
}
