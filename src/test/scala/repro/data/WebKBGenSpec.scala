package repro.data

import repro.{SparkSpec, TestKBs}
import repro.kb.{KBModel, NameDiscovery, RelationImportance, Tokenizer}

class WebKBGenSpec extends SparkSpec {

  private lazy val p = TestKBs.tinyProfile
  private lazy val g = WebKBGen.generate(spark, p)

  test("generation is deterministic") {
    val g2 = WebKBGen.generate(spark, p)
    assert(g.kb1.collect().toSet === g2.kb1.collect().toSet)
    assert(g.kb2.collect().toSet === g2.kb2.collect().toSet)
  }

  test("entity counts match the profile") {
    assert(KBModel.summary(g.kb1).entities === p.n1)
    assert(KBModel.summary(g.kb2).entities === p.n2)
  }

  test("id ranges are disjoint across KBs") {
    val max1 = g.kb1.agg(org.apache.spark.sql.functions.max("subj")).collect()(0).getLong(0)
    val min2 = g.kb2.agg(org.apache.spark.sql.functions.min("subj")).collect()(0).getLong(0)
    assert(max1 < WebKBGen.Off2)
    assert(min2 >= WebKBGen.Off2)
  }

  test("ground truth has nMatches pairs within the id ranges") {
    val t = g.truth.collect().map(r => (r.getLong(0), r.getLong(1)))
    assert(t.length === p.nMatches)
    assert(t.forall { case (a, b) => a < p.n1 && b - WebKBGen.Off2 < p.n2 })
  }

  test("relation triples reference existing entities of the same KB") {
    val e1 = KBModel.entities(g.kb1)
    val dangling = KBModel.relationTriples(g.kb1)
      .join(e1.withColumnRenamed("entity", "objId"), Seq("objId"), "left_anti")
    assert(dangling.count() === 0)
  }

  test("no self-loops in relations") {
    val loops = KBModel.relationTriples(g.kb1).filter("subj = objId").count()
    assert(loops === 0)
  }

  test("matched pairs share tokens (value evidence exists)") {
    val et1 = Tokenizer.entityTokens(g.kb1)
    val et2 = Tokenizer.entityTokens(g.kb2)
    val shared = g.truth
      .join(et1.withColumnRenamed("entity", "id1"), "id1")
      .join(et2.withColumnRenamed("entity", "id2"), Seq("id2", "token"))
      .select("id1").distinct().count()
    // nearly every match shares at least one token in the strong profile
    assert(shared >= (p.nMatches * 0.9).toInt)
  }

  test("roughly pNameShared of matches share a normalized name") {
    val n1 = NameDiscovery.names(g.kb1, 2).withColumnRenamed("entity", "id1")
    val n2 = NameDiscovery.names(g.kb2, 2).withColumnRenamed("entity", "id2")
    val shared = g.truth.join(n1, "id1").join(n2, Seq("id2", "name"))
      .select("id1").distinct().count()
    val frac = shared.toDouble / p.nMatches
    assert(frac > p.pNameShared - 0.25 && frac < p.pNameShared + 0.25, s"frac=$frac")
  }

  test("name discovery ranks the generator's primary label attribute first") {
    val attrs1 = NameDiscovery.nameAttributes(KBModel.summary(g.kb1), 2)
    assert(attrs1.head === g.nameAttrs1.head, s"discovered: $attrs1")
    val attrs2 = NameDiscovery.nameAttributes(KBModel.summary(g.kb2), 2)
    assert(attrs2.head === g.nameAttrs2.head, s"discovered: $attrs2")
  }

  test("important relations outrank junk relations in importance") {
    val het = WebKBGen.generate(spark, TestKBs.tinyHeterogeneous)
    val scores = RelationImportance.scores(KBModel.summary(het.kb2))
      .map(r => r.pred -> r.importance).toMap
    val important = (0 until TestKBs.tinyHeterogeneous.importantRels)
      .map(i => WebKBGen.relName(TestKBs.tinyHeterogeneous, 2, i))
      .filter(scores.contains)
    val junk = scores.keySet -- important
    if (important.nonEmpty && junk.nonEmpty) {
      assert(important.map(scores).min > junk.map(scores).max,
        s"important=${important.map(scores)} junkMax=${junk.map(scores).max}")
    }
  }

  test("relation alignment metadata maps KB1 important relations to KB2") {
    assert(g.relAlignment.size === p.importantRels)
    for ((r1, r2) <- g.relAlignment) {
      assert(r1 !== r2)
    }
  }

  test("matched pairs agree on neighbors through aligned relations") {
    // via pNeighborMatch, an important relation of a matched entity points
    // at the match partner of the same target concept on both sides
    val r1 = KBModel.relationTriples(g.kb1)
      .selectExpr("subj as id1", "pred as p1", "objId as n1")
    val r2 = KBModel.relationTriples(g.kb2)
      .selectExpr("subj as id2", "pred as p2", "objId as n2")
    val joined = g.truth.join(r1, "id1").join(r2, "id2")
      .filter(s"n2 - n1 = ${WebKBGen.Off2} and n1 < ${p.nMatches}")
      .select("id1").distinct().count()
    assert(joined > p.nMatches / 2, s"agreeing=$joined")
  }

  test("KB2 token sets are noisier than KB1 in the heterogeneous profile") {
    val het = WebKBGen.generate(spark, TestKBs.tinyHeterogeneous)
    val avg1 = Tokenizer.averageTokens(Tokenizer.entityTokens(het.kb1))
    val avg2 = Tokenizer.averageTokens(Tokenizer.entityTokens(het.kb2))
    // the tiny test profile uses a reduced noiseChunks2; the full-scale
    // profile's ~4x imbalance is asserted in Table1Bench
    assert(avg2 > 1.5 * avg1, s"avg1=$avg1 avg2=$avg2")
  }

  test("decoration preserves token sets but changes surface strings") {
    val het = WebKBGen.generate(spark, TestKBs.tinyHeterogeneous.copy(pValueNoise = 1.0))
    // exact string intersection between the two KBs' literal values should
    // be rare relative to the match count
    val v1 = KBModel.literals(het.kb1).select("obj").distinct()
    val v2 = KBModel.literals(het.kb2).select("obj").distinct()
    val sharedExact = v1.join(v2, "obj").count()
    assert(sharedExact < TestKBs.tinyHeterogeneous.nMatches / 2, s"shared=$sharedExact")
  }

  test("profiles validate their invariants") {
    intercept[IllegalArgumentException] {
      DatasetProfile.restaurantLite.copy(nMatches = 10000)
    }
  }

  test("all four evaluation profiles generate without error at tiny scale") {
    for (prof <- DatasetProfile.all) {
      val tiny = prof.copy(name = prof.name + "-t", n1 = 50, n2 = 80, nMatches = 20)
      val gg = WebKBGen.generate(spark, tiny)
      assert(KBModel.summary(gg.kb1).entities === 50)
      assert(gg.truth.count() === 20)
    }
  }
}
