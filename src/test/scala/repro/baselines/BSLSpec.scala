package repro.baselines

import repro.{SparkSpec, TestKBs}
import repro.blocking.PreparedPair
import repro.core.MinoanERConfig
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

  test("identical entities have similarity 1 under every measure") {
    val a = KBModel.fromRows(spark, Seq((1L, "p", "alpha beta gamma", None)))
    val b = KBModel.fromRows(spark, Seq((101L, "q", "alpha beta gamma", None)))
    val pairs = Seq((1L, 101L)).toDF("e1", "e2")
    for (w <- Seq[BSL.Weighting](BSL.TF, BSL.TFIDF)) {
      val sims = BSL.pairSimilarities(BSL.ngrams(a, 1), BSL.ngrams(b, 1), pairs, w)
        .collect().head
      assert(math.abs(sims.getAs[Double]("cosine") - 1.0) < 1e-9, w.name)
      assert(math.abs(sims.getAs[Double]("jaccard") - 1.0) < 1e-9, w.name)
      assert(math.abs(sims.getAs[Double]("genJaccard") - 1.0) < 1e-9, w.name)
      assert(math.abs(sims.getAs[Double]("sigma") - 1.0) < 1e-9, w.name)
    }
  }

  test("disjoint entities have similarity 0") {
    val a = KBModel.fromRows(spark, Seq((1L, "p", "alpha beta", None)))
    val b = KBModel.fromRows(spark, Seq((101L, "q", "gamma delta", None)))
    val pairs = Seq((1L, 101L)).toDF("e1", "e2")
    val sims = BSL.pairSimilarities(BSL.ngrams(a, 1), BSL.ngrams(b, 1), pairs, BSL.TF)
      .collect().head
    assert(sims.getAs[Double]("cosine") === 0.0)
    assert(sims.getAs[Double]("jaccard") === 0.0)
  }

  test("unweighted jaccard matches the set formula") {
    val a = KBModel.fromRows(spark, Seq((1L, "p", "x y z", None)))
    val b = KBModel.fromRows(spark, Seq((101L, "q", "x y w", None)))
    val pairs = Seq((1L, 101L)).toDF("e1", "e2")
    val sims = BSL.pairSimilarities(BSL.ngrams(a, 1), BSL.ngrams(b, 1), pairs, BSL.TF)
      .collect().head
    assert(math.abs(sims.getAs[Double]("jaccard") - 2.0 / 4.0) < 1e-9)
  }

  test("similarities are within [0, 1]") {
    val pairs = p.candidatePairs
    for (w <- Seq[BSL.Weighting](BSL.TF, BSL.TFIDF)) {
      val rows = BSL.pairSimilarities(BSL.ngrams(kb1, 1), BSL.ngrams(kb2, 1), pairs, w).collect()
      for (r <- rows; c <- Seq("cosine", "jaccard", "genJaccard", "sigma")) {
        val v = r.getAs[Double](c)
        assert(v >= -1e-9 && v <= 1.0 + 1e-9, s"$c = $v under ${w.name}")
      }
    }
  }

  test("grid sweep on figure-1 achieves perfect F1") {
    val res = BSL.run(spark, p, TestKBs.truth(spark), ns = Seq(1))
    assert(res.bestScores.f1 === 1.0, res.best.label)
  }

  test("grid sweep explores every requested configuration") {
    val res = BSL.run(spark, p, TestKBs.truth(spark),
      ns = Seq(1), thresholds = Seq(0.0, 0.5))
    // 1 n-gram size × (3 TF sims + 4 TF-IDF sims) × 2 thresholds
    assert(res.all.size === 14)
  }
}
