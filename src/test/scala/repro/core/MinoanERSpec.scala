package repro.core

import org.apache.spark.JobCounter
import org.apache.spark.storage.StorageLevel

import repro.{SparkSpec, TestKBs}
import repro.blocking.PreparedPair
import repro.data.{DatasetProfile, WebKBGen}
import repro.graph.BlockingGraph
import repro.harness.Tables
import repro.kb.{KBModel, Tokenizer}

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
  /** One pair and one graph of `tiny` for the variant tests. The graph is
    * checkpointed, so the pair's caches are released once it is built.
    */
  private lazy val (tinyPair, tinyGraph) = {
    val p = PreparedPair(tiny.kb1, tiny.kb2, MinoanERConfig())
    val g = BlockingGraph.build(p)
    p.unpersist()
    (p, g)
  }
  private def variant(v: MinoanER.Variant) = MinoanER.matchGraph(tinyGraph, tinyPair, v)

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
    val m = variant(MinoanER.Variant.R1Only)
    val s = Evaluation.scoreRestricted(m, tiny.truth)
    assert(s.precision > 0.9, s"scores: ${s.pct}")
    assert(s.recall < 1.0)
  }

  test("R2-only variant is precise on strongly similar data") {
    val m = variant(MinoanER.Variant.R2Only)
    val s = Evaluation.scoreRestricted(m, tiny.truth)
    assert(s.precision > 0.8, s"scores: ${s.pct}")
  }

  test("R3-only variant recalls most matches") {
    val m = variant(MinoanER.Variant.R3Only)
    val s = Evaluation.scoreRestricted(m, tiny.truth)
    assert(s.recall > 0.7, s"scores: ${s.pct}")
  }

  test("NoR4 variant returns a superset of the full variant's matches") {
    val full = fullMatches.collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    val noR4 = variant(MinoanER.Variant.NoR4).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(full.subsetOf(noR4))
  }

  test("NoNeighbors variant still runs the full cascade") {
    val m = variant(MinoanER.Variant.NoNeighbors)
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

  private lazy val restaurant1 = {
    val g = WebKBGen.generate(spark, DatasetProfile.restaurantLite.copy(seed = 1))
    g.kb1.cache().count(); g.kb2.cache().count(); g
  }

  test("restaurant-lite (seed 1): resolve keeps its match set and its Spark job budget") {
    // performance refactors must keep this match set exactly, and must not
    // raise the fixed Spark cost of one resolve above this many jobs
    val g = restaurant1
    val (pairs, jobs) = JobCounter(spark.sparkContext) {
      MinoanER.resolve(g.kb1, g.kb2).collect().map(r => (r.getLong(0), r.getLong(1)))
    }
    val (count, digest) = TestKBs.pin(pairs.toSeq)
    assert(count === 639)
    assert(digest === "239e7b682b601628")
    info(s"Spark jobs of one resolve: $jobs")
    assert(jobs <= 44L, s"$jobs Spark jobs")
  }

  test("restaurant-lite (seed 1): every Table-4 variant keeps its match set") {
    val p = PreparedPair(restaurant1.kb1, restaurant1.kb2, MinoanERConfig())
    val graph = BlockingGraph.build(p)
    val got = Tables.table4Variants.map { case (name, v) =>
      name -> TestKBs.pin(TestKBs.pairs(MinoanER.matchGraph(graph, p, v)))
    }
    p.unpersist()
    // captured before the cascade was shortened
    assert(got === Seq(
      "R1" -> ((99, "1bdf8cf4bb3e5219")),
      "R2" -> ((265, "2c43c57e5fc6cb91")),
      "R3" -> ((1345, "18169a1217fb647c")),
      "NoR4" -> ((663, "d0bcffa676ea827e")),
      "NoNeighbors" -> ((291, "d5c6f55f4b1ab13c"))))
  }

  test("resolve is mirror-invariant: swapping the KBs swaps each pair") {
    // the KBs differ in size, so the swap also moves R2 to KB2's sources
    for ((g, expected) <- Seq(
        restaurant1 -> ((639, "239e7b682b601628")),
        tiny -> ((110, "ece8f3414d33fda1")),
        tinyHet -> ((132, "8db42a2c60b70e36")))) {
      val direct = TestKBs.pairs(MinoanER.resolve(g.kb1, g.kb2))
      val mirrored = TestKBs.pairs(MinoanER.resolve(g.kb2, g.kb1)).map(_.swap)
      assert(TestKBs.pin(direct) === expected)
      assert(TestKBs.pin(mirrored) === expected)
    }
  }

  test("resolve releases every frame it caches") {
    val g = WebKBGen.generate(spark, TestKBs.tinyProfile.copy(seed = 13))
    val cfg = MinoanERConfig()
    MinoanER.resolve(g.kb1, g.kb2, cfg).collect()
    assert(Tokenizer.entityTokens(g.kb1).storageLevel === StorageLevel.NONE)
    assert(KBModel.entities(g.kb1).storageLevel === StorageLevel.NONE)
    val p = PreparedPair(g.kb1, g.kb2, cfg)
    val valueEdges = BlockingGraph.topKDirected(p.betaPairs, "beta", cfg.bigK)
    assert(valueEdges.storageLevel === StorageLevel.NONE)
    p.unpersist()
  }

  // captured before the single-join orientation; each profile at its
  // default seed, as in Tables 1-4
  for ((profile, expected) <- Seq(
      DatasetProfile.rexaDblpLite -> ((14043, "25a27a66aa3cff7a")),
      DatasetProfile.bbcmusicDbpediaLite -> ((10587, "c1dac3f736e86e3a")),
      DatasetProfile.yagoImdbLite -> ((20058, "3ba9dcefbee13e70"))))
    test(s"${profile.name} (seed ${profile.seed}): resolve keeps its match set") {
      val g = WebKBGen.generate(spark, profile)
      g.kb1.cache(); g.kb2.cache()
      assert(TestKBs.pin(TestKBs.pairs(MinoanER.resolve(g.kb1, g.kb2))) === expected)
      g.kb1.unpersist(); g.kb2.unpersist()
    }
}
