package repro.kb

import repro.{Oracle, SparkSpec, TestKBs}

class RelationImportanceSpec extends SparkSpec {

  /** 4 entities; relation "good" has 3 instances with 3 distinct objects,
    * relation "hub" has 3 instances all pointing at entity 9.
    */
  private lazy val kb = KBModel.fromRows(spark, Seq(
    (1L, "good", "ref:2", Some(2L)),
    (2L, "good", "ref:3", Some(3L)),
    (3L, "good", "ref:9", Some(9L)),
    (1L, "hub", "ref:9", Some(9L)),
    (2L, "hub", "ref:9", Some(9L)),
    (3L, "hub", "ref:9", Some(9L)),
    (9L, "label", "hub node", None),
  ))

  private def scores = RelationImportance.relationScores(kb).collect()
    .map(r => r.getString(0) -> r).toMap

  test("support follows Definition 2.2 (instances / |E|^2)") {
    val n = KBModel.summary(kb).entities.toDouble // 4 entities: 1,2,3,9
    assert(math.abs(scores("good").getAs[Double]("support") - 3 / (n * n)) < 1e-12)
  }

  test("discriminability follows Definition 2.3 (objects / instances)") {
    assert(math.abs(scores("good").getAs[Double]("discriminability") - 1.0) < 1e-12)
    assert(math.abs(scores("hub").getAs[Double]("discriminability") - 1.0 / 3) < 1e-12)
  }

  test("importance is the harmonic mean of support and discriminability") {
    val r = scores("good")
    val s = r.getAs[Double]("support"); val d = r.getAs[Double]("discriminability")
    assert(math.abs(r.getAs[Double]("importance") - 2 * s * d / (s + d)) < 1e-12)
  }

  test("distinct-object relation outranks hub relation of equal support") {
    assert(scores("good").getAs[Double]("importance") >
           scores("hub").getAs[Double]("importance"))
  }

  test("duplicate relation triples count once as instances") {
    val dup = KBModel.fromRows(spark, Seq(
      (1L, "p", "ref:2", Some(2L)),
      (1L, "p", "ref:2", Some(2L)),
      (2L, "label", "x", None)))
    val r = RelationImportance.relationScores(dup).collect().head
    assert(r.getAs[Long]("instances") === 1)
  }

  test("relation instance counts agree with the DuckDB oracle") {
    val inst = KBModel.relationTriples(kb).select("subj", "pred", "objId").distinct()
    Oracle.assertEquivalent(
      RelationImportance.relationScores(kb)
        .selectExpr("pred", "cast(instances as string) as instances",
                    "cast(objects as string) as objects"),
      """SELECT pred, cast(count(*) as varchar) as instances,
        |       cast(count(distinct objId) as varchar) as objects
        |FROM inst GROUP BY pred""".stripMargin,
      "inst" -> inst)
  }

  test("topNRelations keeps the N globally best relations per entity") {
    val top = RelationImportance.topNRelations(kb, 1).collect()
      .map(r => (r.getLong(0), r.getString(1))).toSet
    assert(top === Set((1L, "good"), (2L, "good"), (3L, "good")))
  }

  test("topNRelations with large N returns all relations of the entity") {
    val top = RelationImportance.topNRelations(kb, 10)
      .filter("entity = 1").collect().map(_.getString(1)).toSet
    assert(top === Set("good", "hub"))
  }

  test("topNeighbors resolves the objects of the top relations") {
    val nb = RelationImportance.topNeighbors(kb, 1).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(nb === Set((1L, 2L), (2L, 3L), (3L, 9L)))
  }

  test("topInNeighbors is the exact reverse of topNeighbors") {
    val fwd = RelationImportance.topNeighbors(kb, 2).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    val rev = RelationImportance.topInNeighbors(kb, 2).collect()
      .map(r => (r.getLong(1), r.getLong(0))).toSet
    assert(fwd === rev)
  }

  test("figure-1 KB1: Restaurant1's top-2 neighbors exclude the weakest relation") {
    val kb1 = TestKBs.kb1(spark)
    val nb = RelationImportance.topNeighbors(kb1, 2)
      .filter(s"entity = ${TestKBs.Restaurant1}")
      .collect().map(_.getLong(1)).toSet
    assert(nb.size === 2)
    assert(nb.subsetOf(Set(TestKBs.JohnLakeA, TestKBs.Bray, TestKBs.UK)))
  }

  test("entity with no relations yields no top neighbors") {
    val nb = RelationImportance.topNeighbors(kb, 3).filter("entity = 9").count()
    assert(nb === 0)
  }
}
