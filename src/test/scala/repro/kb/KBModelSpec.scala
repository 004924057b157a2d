package repro.kb

import repro.{Oracle, SparkSpec, TestKBs}
import repro.data.WebKBGen

class KBModelSpec extends SparkSpec {

  private lazy val kb1 = TestKBs.kb1(spark)

  test("literals excludes relation triples") {
    assert(KBModel.literals(kb1).count() === 7)
  }

  test("relationTriples selects only entity-valued triples") {
    assert(KBModel.relationTriples(kb1).count() === 3)
  }

  test("entities collects distinct subjects") {
    val e = KBModel.entities(kb1).collect().map(_.getLong(0)).toSet
    assert(e === Set(TestKBs.Restaurant1, TestKBs.JohnLakeA, TestKBs.Bray, TestKBs.UK))
  }

  test("summary counts distinct subjects as entities") {
    assert(KBModel.summary(kb1).entities === 4)
  }

  test("summaries of two KBs in one pass keep each KB's counts apart") {
    // `part` shares every pred with kb1, so only the grouping by KB keeps them apart
    val (kb2, part) = (TestKBs.kb2(spark), kb1.filter(s"subj != ${TestKBs.UK}"))
    val all = KBModel.summaries(kb1, kb2, part)
    assert(all === Seq(KBModel.summary(kb1), KBModel.summary(kb2), KBModel.summary(part)))
    assert(all.map(_.entities) === Seq(4L, 3L, 3L))
  }

  test("fromRows round-trips objId nullability") {
    val kb = KBModel.fromRows(spark, Seq(
      (1L, "p", "v", None), (1L, "r", "ref:2", Some(2L))))
    assert(kb.filter(kb("objId").isNull).count() === 1)
    assert(kb.filter(kb("objId") === 2L).count() === 1)
  }

  test("schema column names and order") {
    assert(kb1.columns.toSeq === Seq("subj", "pred", "obj", "objId"))
  }

  test("summary counts agree with the DuckDB oracle on a generated KB") {
    import spark.implicits._
    val kb = WebKBGen.generate(spark, TestKBs.tinyProfile).kb2
    val s = KBModel.summary(kb)
    def rows(kind: String, m: Map[String, KBModel.PredicateCounts]) =
      m.toSeq.map { case (p, c) =>
        (kind, p, c.subjects.toString, c.instances.toString, c.objects.toString) }
    val got = (rows("attribute", s.attributes) ++ rows("relation", s.relations) :+
      (("kb", "", s.entities.toString, "0", "0")))
      .toDF("kind", "pred", "subjects", "instances", "objects")
    Oracle.assertEquivalent(got,
      """SELECT kind, pred, cast(subjects as varchar) as subjects,
        |       cast(instances as varchar) as instances, cast(objects as varchar) as objects
        |FROM (
        |  SELECT CASE WHEN objId IS NULL THEN 'attribute' ELSE 'relation' END as kind, pred,
        |         count(distinct subj) as subjects,
        |         count(distinct subj || '|' || coalesce(objId, obj)) as instances,
        |         count(distinct coalesce(objId, obj)) as objects
        |  FROM kb GROUP BY 1, 2
        |  UNION ALL
        |  SELECT 'kb', '', count(distinct subj), 0, 0 FROM kb)""".stripMargin,
      "kb" -> kb)
    assert(s.relations.nonEmpty && s.attributes.nonEmpty)
  }

  test("summary separates a pred used both as attribute and as relation") {
    val kb = KBModel.fromRows(spark, Seq(
      (1L, "p", "x", None), (2L, "p", "x", None), (1L, "p", "ref:2", Some(2L))))
    val s = KBModel.summary(kb)
    assert(s.entities === 2)
    assert(s.attributes === Map("p" -> KBModel.PredicateCounts(2, 2, 1)))
    assert(s.relations === Map("p" -> KBModel.PredicateCounts(1, 1, 1)))
  }

  private def noRelations = KBModel.fromRows(spark, Seq(
    (1L, "label", "one", None), (2L, "label", "two", None)))
  private def noLiterals = KBModel.fromRows(spark, Seq(
    (1L, "knows", "ref:2", Some(2L)), (2L, "knows", "ref:1", Some(1L))))

  test("an empty KB has an empty summary and no names, scores or neighbors") {
    val empty = KBModel.fromRows(spark, Seq.empty)
    val s = KBModel.summary(empty)
    assert(s === KBModel.KBSummary(0, Map.empty, Map.empty))
    assert(NameDiscovery.nameAttributes(s, 2).isEmpty)
    assert(NameDiscovery.names(empty, 2).count() === 0)
    assert(NameDiscovery.scores(s).isEmpty)
    assert(RelationImportance.scores(s).isEmpty)
    assert(RelationImportance.topInNeighbors(empty, 3).count() === 0)
  }

  test("a KB without relations has names but no neighbors") {
    val s = KBModel.summary(noRelations)
    assert(s.entities === 2 && s.relations.isEmpty)
    assert(NameDiscovery.names(noRelations, s, 2).count() === 2)
    assert(RelationImportance.scores(s).isEmpty)
    assert(RelationImportance.topInNeighbors(noRelations, s, 3).count() === 0)
  }

  test("a KB without literals has neighbors but no names") {
    val s = KBModel.summary(noLiterals)
    assert(s.entities === 2 && s.attributes.isEmpty)
    assert(NameDiscovery.nameAttributes(s, 2).isEmpty)
    assert(NameDiscovery.names(noLiterals, s, 2).count() === 0)
    assert(RelationImportance.topInNeighbors(noLiterals, s, 3).count() === 2)
  }

  test("fewer literal attributes than k yields all of them as name attributes") {
    assert(NameDiscovery.nameAttributes(KBModel.summary(noRelations), 5) === Seq("label"))
    assert(NameDiscovery.names(noRelations, 5).count() === 2)
  }
}
