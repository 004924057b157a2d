package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.{Evaluation, Scores, UniqueMappingClustering}
import repro.kb.{KBModel, Tokenizer}
import repro.blocking.PreparedPair

/** BSL — the paper's heavily fine-tuned value-only baseline (§6,
  * “Baselines”).
  *
  * It receives the *unpruned* blocking-graph candidate pairs and compares
  * every connected pair with a classic string-similarity pipeline:
  *
  *  - representation: token n-grams, n ∈ {1, 2, 3};
  *  - weighting: TF or TF-IDF;
  *  - similarity: Cosine, Jaccard, Generalized Jaccard, or SiGMa
  *    (the last applies only to TF-IDF, as in the paper) — all in [0, 1];
  *  - Unique Mapping Clustering with every threshold in [0, 1) step 0.05.
  *
  * Like the paper's BSL, the grid is tuned ON the ground truth and the best
  * F1 is reported — it is a skyline for value-only matching, not a fair
  * unsupervised competitor.
  */
object BSL {

  sealed trait Weighting { def name: String }
  case object TF extends Weighting { val name = "TF" }
  case object TFIDF extends Weighting { val name = "TF-IDF" }

  sealed trait Sim { def name: String }
  case object Cosine extends Sim { val name = "Cosine" }
  case object Jaccard extends Sim { val name = "Jaccard" }
  case object GenJaccard extends Sim { val name = "GenJaccard" }
  case object SigmaSim extends Sim { val name = "SiGMa" }

  final case class BslConfig(n: Int, weighting: Weighting, sim: Sim, threshold: Double) {
    def label: String = f"n=$n%d/${weighting.name}%s/${sim.name}%s/t=$threshold%.2f"
  }

  final case class BslResult(best: BslConfig, bestScores: Scores,
                             all: Seq[(BslConfig, Scores)])

  /** Token n-grams with term frequency per entity: (entity, gram, tf).
    * n-grams are formed within each literal value (no crossing values).
    */
  def ngrams(kb: DataFrame, n: Int): DataFrame = {
    val toks = KBModel.literals(kb)
      .select(col("subj") as "entity",
              split(lower(col("obj")), Tokenizer.TokenSplit) as "toks")
      .select(col("entity"), filter(col("toks"), t => length(t) > 0) as "toks")
    val grams =
      if (n == 1) toks.select(col("entity"), explode(col("toks")) as "gram")
      else {
        // sliding window of n consecutive tokens inside one value
        toks
          .filter(size(col("toks")) >= n)
          .select(col("entity"),
            explode(transform(sequence(lit(0), size(col("toks")) - n),
              i => concat_ws(" ", slice(col("toks"), i + 1, lit(n))))) as "gram")
      }
    grams.groupBy("entity", "gram").agg(count(lit(1)) as "tf")
  }

  /** All similarity columns for one (n, weighting) slice, restricted to the
    * candidate pairs. Output: (e1, e2, cosine, jaccard, genJaccard, sigma).
    */
  def pairSimilarities(
      grams1: DataFrame, grams2: DataFrame,
      pairs: DataFrame,
      weighting: Weighting): DataFrame = {

    // TF-IDF counts the entities and each gram's document frequency once,
    // over both KBs, for both sides
    val weighted: DataFrame => DataFrame = weighting match {
      case TF =>
        // normalize TF by entity max to keep weights in [0,1]
        grams => grams.join(grams.groupBy("entity").agg(max("tf") as "maxtf"), "entity")
          .withColumn("w", col("tf") / col("maxtf"))
      case TFIDF =>
        val total = (grams1.select("entity").distinct().count() +
          grams2.select("entity").distinct().count()).toDouble
        val df = grams1.select("entity", "gram").union(grams2.select("entity", "gram"))
          .groupBy("gram").agg(countDistinct("entity") as "df")
        // smoothed idf: strictly positive even for grams present everywhere
        grams => grams.join(df, "gram")
          .withColumn("w", col("tf") * log(lit(1.0) + lit(total) / col("df")))
    }

    val w1 = weighted(grams1).select(col("entity") as "e1", col("gram"), col("w") as "w1")
    val w2 = weighted(grams2).select(col("entity") as "e2", col("gram"), col("w") as "w2")

    val stats1 = w1.groupBy("e1").agg(
      sum(col("w1") * col("w1")) as "sq1", sum("w1") as "sum1", count(lit(1)) as "n1")
    val stats2 = w2.groupBy("e2").agg(
      sum(col("w2") * col("w2")) as "sq2", sum("w2") as "sum2", count(lit(1)) as "n2")

    val shared = pairs
      .join(w1, "e1")
      .join(w2, Seq("e2", "gram"))
      .groupBy("e1", "e2")
      .agg(
        sum(col("w1") * col("w2")) as "dot",
        sum(least(col("w1"), col("w2"))) as "smin",
        sum(greatest(col("w1"), col("w2"))) as "smaxShared",
        sum(col("w1") + col("w2")) as "ssum",
        count(lit(1)) as "inter")

    // left-join back so pairs with no shared grams score 0
    pairs
      .join(shared, Seq("e1", "e2"), "left")
      .na.fill(0.0, Seq("dot", "smin", "smaxShared", "ssum"))
      .na.fill(0L, Seq("inter"))
      .join(stats1, "e1").join(stats2, "e2")
      .select(col("e1"), col("e2"),
        (col("dot") / (sqrt(col("sq1")) * sqrt(col("sq2")))) as "cosine",
        (col("inter") / (col("n1") + col("n2") - col("inter"))) as "jaccard",
        // Σ min over shared / (Σ max over union) — max over union =
        // Σ_e1 w + Σ_e2 w − (Σ_shared min + Σ_shared max) + Σ_shared max
        (col("smin") /
          (col("sum1") + col("sum2") - col("smin"))) as "genJaccard",
        (col("ssum") / (col("sum1") + col("sum2"))) as "sigma")
  }

  private val CapPerEntity = 50

  /** Full grid sweep over `p`'s candidate pairs; returns the best
    * configuration by F1. Neighbor-only pairs have zero value similarity
    * and can never win UMC at a positive threshold, so they are omitted
    * (documented deviation).
    */
  def run(spark: SparkSession,
          p: PreparedPair,
          truth: DataFrame,
          ns: Seq[Int] = Seq(1, 2, 3),
          thresholds: Seq[Double] = (0 until 20).map(_ * 0.05)): BslResult = {

    val pairs = p.candidatePairs.cache()
    pairs.count()
    val tset = Evaluation.truthSet(truth)

    val results = Seq.newBuilder[(BslConfig, Scores)]
    for (n <- ns) {
      val g1 = ngrams(p.kb1, n).cache()
      val g2 = ngrams(p.kb2, n).cache()
      for (weighting <- Seq[Weighting](TF, TFIDF)) {
        val sims = pairSimilarities(g1, g2, pairs, weighting)
        val simCols: Seq[(Sim, String)] = weighting match {
          case TF => Seq(Cosine -> "cosine", Jaccard -> "jaccard", GenJaccard -> "genJaccard")
          case TFIDF => Seq(Cosine -> "cosine", Jaccard -> "jaccard",
                            GenJaccard -> "genJaccard", SigmaSim -> "sigma")
        }
        // one Spark collect per weighting slice (all sim columns at once);
        // the UMC sweep over thresholds runs driver-side.
        val collected = UniqueMappingClustering.collectCandidates(
          sims, simCols.map(_._2), CapPerEntity)
        for (((sim, _), idx) <- simCols.zipWithIndex) {
          val scored = collected.map { case (a, b, ws) => (a, b, ws(idx)) }
          for (t <- thresholds) {
            val m = UniqueMappingClustering.cluster(scored, math.max(t, 1e-12))
            results += ((BslConfig(n, weighting, sim, t),
              Evaluation.scorePairsRestricted(m, tset)))
          }
        }
      }
      g1.unpersist(); g2.unpersist()
    }
    pairs.unpersist()

    val all = results.result()
    val (bestCfg, bestScores) = all.maxBy { case (c, s) => (s.f1, -c.threshold) }
    BslResult(bestCfg, bestScores, all)
  }
}
