package repro.kb

import repro.{Oracle, SparkSpec, TestKBs}

class NameDiscoverySpec extends SparkSpec {

  /** 4 entities: "label" on all with unique values; "cat" on all with 2
    * distinct values; "rare" on one entity.
    */
  private def attrs(kb: org.apache.spark.sql.DataFrame, k: Int) =
    NameDiscovery.nameAttributes(KBModel.summary(kb), k)

  private def scores = spark.createDataFrame(NameDiscovery.scores(KBModel.summary(kb)))

  private lazy val kb = KBModel.fromRows(spark, Seq(
    (1L, "label", "alpha one", None),
    (2L, "label", "beta two", None),
    (3L, "label", "gamma three", None),
    (4L, "label", "delta four", None),
    (1L, "cat", "red", None),
    (2L, "cat", "red", None),
    (3L, "cat", "blue", None),
    (4L, "cat", "blue", None),
    (1L, "rare", "unique thing", None),
  ))

  test("attribute support follows |subjects(p)| / |E|") {
    val s = scores.collect()
      .map(r => r.getString(0) -> r.getAs[Double]("support")).toMap
    assert(math.abs(s("label") - 1.0) < 1e-12)
    assert(math.abs(s("rare") - 0.25) < 1e-12)
  }

  test("attribute discriminability follows |objects| / |instances|") {
    val s = scores.collect()
      .map(r => r.getString(0) -> r.getAs[Double]("discriminability")).toMap
    assert(math.abs(s("label") - 1.0) < 1e-12)
    assert(math.abs(s("cat") - 0.5) < 1e-12)
  }

  test("attribute subject counts agree with the DuckDB oracle") {
    val lits = KBModel.literals(kb).select("subj", "pred", "obj").distinct()
    Oracle.assertEquivalent(
      scores
        .selectExpr("pred", "cast(subjects as string) as subjects"),
      "SELECT pred, cast(count(distinct subj) as varchar) as subjects FROM lits GROUP BY pred",
      "lits" -> lits)
  }

  test("the top name attribute is the high-support high-discriminability one") {
    assert(attrs(kb, 1) === Seq("label"))
  }

  test("k controls how many name attributes are returned") {
    assert(attrs(kb, 2).size === 2)
    assert(attrs(kb, 2).head === "label")
  }

  test("names are normalized literal values of the name attributes") {
    val names = NameDiscovery.names(kb, 1).collect()
      .map(r => (r.getLong(0), r.getString(1))).toSet
    assert(names === Set((1L, "alphaone"), (2L, "betatwo"), (3L, "gammathree"), (4L, "deltafour")))
  }

  test("names drop empty normalizations") {
    val weird = KBModel.fromRows(spark, Seq(
      (1L, "label", "!!!", None), (2L, "label", "ok", None)))
    val names = NameDiscovery.names(weird, 1).collect().map(_.getLong(0)).toSet
    assert(names === Set(2L))
  }

  test("figure-1 KBs: both sides discover their label/name attribute first") {
    assert(attrs(TestKBs.kb1(spark), 1) === Seq("label"))
    assert(attrs(TestKBs.kb2(spark), 1) === Seq("name"))
  }

  test("figure-1: JohnLakeA and JonnyLake share the normalized name jlake") {
    val n1 = NameDiscovery.names(TestKBs.kb1(spark), 2).collect()
      .map(r => (r.getLong(0), r.getString(1))).toSet
    val n2 = NameDiscovery.names(TestKBs.kb2(spark), 2).collect()
      .map(r => (r.getLong(0), r.getString(1))).toSet
    assert(n1.contains((TestKBs.JohnLakeA, "jlake")))
    assert(n2.contains((TestKBs.JonnyLake, "jlake")))
  }
}
