package repro.kb

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

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

  private def relationScores(kb: DataFrame) =
    spark.createDataFrame(RelationImportance.scores(KBModel.summary(kb)))

  private def scores = relationScores(kb).collect()
    .map(r => r.getString(0) -> r).toMap

  private def topNeighbors(kb: DataFrame, n: Int) =
    RelationImportance.topNeighbors(kb, KBModel.summary(kb), n)

  /** (entity, neighbor) of the KB's triples of relation `pred`. */
  private def neighborsVia(pred: String): Set[(Long, Long)] =
    KBModel.relationTriples(kb).filter(col("pred") === pred).collect()
      .map(r => (r.getAs[Long]("subj"), r.getAs[Long]("objId"))).toSet

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
    val r = relationScores(dup).collect().head
    assert(r.getAs[Long]("instances") === 1)
  }

  test("relation instance counts agree with the DuckDB oracle") {
    val inst = KBModel.relationTriples(kb).select("subj", "pred", "objId").distinct()
    Oracle.assertEquivalent(
      relationScores(kb)
        .selectExpr("pred", "cast(instances as string) as instances",
                    "cast(objects as string) as objects"),
      """SELECT pred, cast(count(*) as varchar) as instances,
        |       cast(count(distinct objId) as varchar) as objects
        |FROM inst GROUP BY pred""".stripMargin,
      "inst" -> inst)
  }

  test("topNRelations keeps the N globally best relations per entity") {
    // with N = 1 every entity reaches exactly the neighbors of "good"
    val top = topNeighbors(kb, 1).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(top === neighborsVia("good"))
    assert(top.map(_._1) === Set(1L, 2L, 3L))
  }

  test("topNRelations with large N returns all relations of the entity") {
    val top = topNeighbors(kb, 10)
      .filter("entity = 1").collect().map(r => (1L, r.getLong(1))).toSet
    assert(top === (neighborsVia("good") ++ neighborsVia("hub")).filter(_._1 == 1L))
  }

  test("topNeighbors resolves the objects of the top relations") {
    val nb = topNeighbors(kb, 1).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(nb === Set((1L, 2L), (2L, 3L), (3L, 9L)))
  }

  test("topInNeighbors is the exact reverse of topNeighbors") {
    val fwd = topNeighbors(kb, 2).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    val rev = RelationImportance.topInNeighbors(kb, 2).collect()
      .map(r => (r.getLong(1), r.getLong(0))).toSet
    assert(fwd === rev)
  }

  test("figure-1 KB1: Restaurant1's top-2 neighbors exclude the weakest relation") {
    val kb1 = TestKBs.kb1(spark)
    val nb = topNeighbors(kb1, 2)
      .filter(s"entity = ${TestKBs.Restaurant1}")
      .collect().map(_.getLong(1)).toSet
    assert(nb.size === 2)
    assert(nb.subsetOf(Set(TestKBs.JohnLakeA, TestKBs.Bray, TestKBs.UK)))
  }

  test("entity with no relations yields no top neighbors") {
    val nb = topNeighbors(kb, 3).filter("entity = 9").count()
    assert(nb === 0)
  }
}
