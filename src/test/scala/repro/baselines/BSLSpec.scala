package repro.baselines

import repro.{SparkSpec, TestKBs}
import repro.blocking.PreparedPair
import repro.core.{MinoanERConfig, Scores}
import repro.harness.Tables
import repro.kb.KBModel

class BSLSpec extends SparkSpec {

  import spark.implicits._

  private lazy val kb1 = TestKBs.kb1(spark)
  private lazy val kb2 = TestKBs.kb2(spark)
  private lazy val p = PreparedPair(kb1, kb2, MinoanERConfig())

  test("unigram extraction counts term frequencies") {
    val kb = KBModel.fromRows(spark, Seq((1L, "a", "x x y", None)))
    val g = BSL.ngrams(kb, 1).collect().map(r => (r.getString(1), r.getLong(2))).toMap
    assert(g === Map("x" -> 2L, "y" -> 1L))
  }

  test("bigrams slide within a value") {
    val kb = KBModel.fromRows(spark, Seq((1L, "a", "x y z", None)))
    val g = BSL.ngrams(kb, 2).collect().map(_.getString(1)).toSet
    assert(g === Set("x y", "y z"))
  }

  test("trigrams need at least three tokens") {
    val kb = KBModel.fromRows(spark, Seq((1L, "a", "x y", None), (1L, "b", "a b c", None)))
    val g = BSL.ngrams(kb, 3).collect().map(_.getString(1)).toSet
    assert(g === Set("a b c"))
  }

  test("ngrams do not cross value boundaries") {
    val kb = KBModel.fromRows(spark, Seq((1L, "a", "x", None), (1L, "b", "y", None)))
    assert(BSL.ngrams(kb, 2).count() === 0)
  }

  test("candidatePairs unions token-block pairs and name pairs") {
    val pairs = p.candidatePairs.collect().map(r => (r.getLong(0), r.getLong(1)))
    assert(pairs.length === 4)
    assert(pairs.contains((TestKBs.Bray, TestKBs.Berkshire)))
    assert(pairs.contains((TestKBs.JohnLakeA, TestKBs.JonnyLake)))
    assert(!pairs.contains((TestKBs.UK, TestKBs.JonnyLake)))
    assert(pairs.distinct.length === pairs.length)
  }

  private val simCols = Seq("jaccard", "sigma", "tfCosine", "tfGenJaccard",
    "tfidfCosine", "tfidfGenJaccard")

  test("identical entities have similarity 1 under every measure") {
    val a = KBModel.fromRows(spark, Seq((1L, "p", "alpha beta gamma", None)))
    val b = KBModel.fromRows(spark, Seq((101L, "q", "alpha beta gamma", None)))
    val pairs = Seq((1L, 101L)).toDF("e1", "e2")
    val sims = BSL.pairSimilarities(BSL.ngrams(a, 1), BSL.ngrams(b, 1), pairs).collect().head
    for (c <- simCols)
      assert(math.abs(sims.getAs[Double](c) - 1.0) < 1e-9, c)
  }

  test("disjoint entities have similarity 0") {
    val a = KBModel.fromRows(spark, Seq((1L, "p", "alpha beta", None)))
    val b = KBModel.fromRows(spark, Seq((101L, "q", "gamma delta", None)))
    val pairs = Seq((1L, 101L)).toDF("e1", "e2")
    val sims = BSL.pairSimilarities(BSL.ngrams(a, 1), BSL.ngrams(b, 1), pairs).collect().head
    for (c <- simCols)
      assert(sims.getAs[Double](c) === 0.0, c)
  }

  test("unweighted jaccard matches the set formula") {
    val a = KBModel.fromRows(spark, Seq((1L, "p", "x y z", None)))
    val b = KBModel.fromRows(spark, Seq((101L, "q", "x y w", None)))
    val pairs = Seq((1L, 101L)).toDF("e1", "e2")
    val sims = BSL.pairSimilarities(BSL.ngrams(a, 1), BSL.ngrams(b, 1), pairs).collect().head
    assert(math.abs(sims.getAs[Double]("jaccard") - 2.0 / 4.0) < 1e-9)
  }

  test("similarities are within [0, 1]") {
    val rows = BSL.pairSimilarities(BSL.ngrams(kb1, 1), BSL.ngrams(kb2, 1), p.candidatePairs)
      .collect()
    assert(rows.nonEmpty)
    for (r <- rows; c <- simCols) {
      val v = r.getAs[Double](c)
      assert(v >= -1e-9 && v <= 1.0 + 1e-9, s"$c = $v")
    }
  }

  private lazy val figure1Grid = BSL.run(p, TestKBs.truth(spark))

  test("grid sweep on figure-1 achieves perfect F1") {
    assert(figure1Grid.bestScores.f1 === 1.0, figure1Grid.best.label)
  }

  test("grid sweep covers the whole grid") {
    val res = figure1Grid
    // 3 n-gram sizes × (3 TF sims + 4 TF-IDF sims) × 20 thresholds
    assert(res.all.size === 3 * 7 * 20)
    assert(res.all.map(_._1.label).distinct.size === res.all.size)
  }

  test("grid sweep keeps every point of the tiny bundle's grid") {
    // captured when each grid point ran its own similarity query per
    // weighting and its own UMC pass; one line per point, in grid order
    val expected = scala.io.Source.fromResource("repro/baselines/bsl-grid-tiny.txt")
      .getLines().toSeq
    val b = Tables.bundle(spark, TestKBs.tinyProfile.copy(name = "restaurant-lite"))
    val tiny = PreparedPair(b.kb1, b.kb2, MinoanERConfig())
    val res = try BSL.run(tiny, b.truth) finally { tiny.unpersist(); Tables.releaseBundle(b) }
    val got = res.all.map { case (c, s) => s"${c.label} $s" }
    assert(got.size === expected.size)
    for ((g, e) <- got.zip(expected)) assert(g === e)
    assert(res.best.label === "n=1/TF/Cosine/t=0.00")
    assert(res.bestScores === Scores(1.0, 1.0, 1.0, 40, 40, 40))
  }
}
