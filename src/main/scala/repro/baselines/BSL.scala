package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
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

  /** The paper's grid: the n-gram sizes; each weighting's similarities
    * with their columns of [[pairSimilarities]] (SiGMa applies only to
    * TF-IDF, as in the paper; Jaccard reads only gram counts, so both
    * weightings share its column); the UMC thresholds, [0, 1) step 0.05.
    */
  val NgramSizes: Seq[Int] = Seq(1, 2, 3)
  val Similarities: Seq[(String, Seq[(String, String)])] = Seq(
    "TF" -> Seq("Cosine" -> "tfCosine", "Jaccard" -> "jaccard", "GenJaccard" -> "tfGenJaccard"),
    "TF-IDF" -> Seq("Cosine" -> "tfidfCosine", "Jaccard" -> "jaccard",
                    "GenJaccard" -> "tfidfGenJaccard", "SiGMa" -> "sigma"))
  val Thresholds: Seq[Double] = (0 until 20).map(_ * 0.05)

  final case class BslConfig(n: Int, weighting: String, sim: String, threshold: Double) {
    def label: String = f"n=$n%d/$weighting%s/$sim%s/t=$threshold%.2f"
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

  /** Every similarity column of the grid for one n-gram size, restricted to
    * the candidate pairs: Jaccard, the TF-IDF SiGMa similarity, and Cosine
    * and Generalized Jaccard under each weighting. Pairs of which an entity
    * has no gram are left out. Output: (e1, e2, jaccard, sigma, tfCosine,
    * tfGenJaccard, tfidfCosine, tfidfGenJaccard).
    */
  def pairSimilarities(grams1: DataFrame, grams2: DataFrame, pairs: DataFrame): DataFrame = {
    // TF-IDF counts the entities and each gram's document frequency once,
    // over both KBs, for both sides
    val total = (grams1.select("entity").distinct().count() +
      grams2.select("entity").distinct().count()).toDouble
    val df = grams1.select("entity", "gram").union(grams2.select("entity", "gram"))
      .groupBy("gram").agg(countDistinct("entity") as "df")
    val ws = Seq("tf", "tfidf")
    // (e<i>, gram, tf<i>, tfidf<i>): TF normalized by the entity's max to
    // keep weights in [0,1], and TF times a smoothed idf, strictly positive
    // even for grams present everywhere
    def weighted(grams: DataFrame, i: Int): DataFrame =
      grams.join(df, "gram").select(col("entity") as s"e$i", col("gram"),
        col("tf") / max("tf").over(Window.partitionBy("entity")) as s"tf$i",
        (col("tf") * log(lit(1.0) + lit(total) / col("df"))) as s"tfidf$i")
    val (w1, w2) = (weighted(grams1, 1), weighted(grams2, 2))
    // per entity: its gram count, and each weighting's Σ w² and Σ w
    def stats(w: DataFrame, i: Int): DataFrame = w.groupBy(s"e$i").agg(count(lit(1)) as s"n$i",
      ws.flatMap(k => Seq(sum(col(s"$k$i") * col(s"$k$i")) as s"${k}Sq$i",
        sum(s"$k$i") as s"${k}Sum$i")): _*)
    val shared = pairs.join(w1, "e1").join(w2, Seq("e2", "gram")).groupBy("e1", "e2")
      .agg(count(lit(1)) as "inter", ws.flatMap { k =>
        val (v1, v2) = (col(s"${k}1"), col(s"${k}2"))
        Seq(sum(v1 * v2) as s"${k}Dot", sum(least(v1, v2)) as s"${k}Min")
      } :+ (sum(col("tfidf1") + col("tfidf2")) as "tfidfShared"): _*)

    // left-join back so pairs with no shared grams score 0
    pairs.join(shared, Seq("e1", "e2"), "left").na.fill(0)
      .join(stats(w1, 1), "e1").join(stats(w2, 2), "e2")
      .select(Seq(col("e1"), col("e2"),
        (col("inter") / (col("n1") + col("n2") - col("inter"))) as "jaccard",
        (col("tfidfShared") / (col("tfidfSum1") + col("tfidfSum2"))) as "sigma") ++
        ws.flatMap { k =>
          def c(name: String) = col(k + name)
          // Generalized Jaccard: Σ min over shared / Σ max over union, where
          // Σ max over union = Σ_e1 w + Σ_e2 w − Σ_shared min
          Seq((c("Dot") / (sqrt(c("Sq1")) * sqrt(c("Sq2")))) as s"${k}Cosine",
            (c("Min") / (c("Sum1") + c("Sum2") - c("Min"))) as s"${k}GenJaccard")
        }: _*)
  }

  private val CapPerEntity = 50

  /** Full grid sweep over `p`'s candidate pairs; returns the best
    * configuration by F1 (the first of the highest F1 and lowest
    * threshold, in (n, weighting, similarity, threshold) order).
    * Neighbor-only pairs have zero value similarity and can never win UMC
    * at a positive threshold, so they are omitted (documented deviation).
    *
    * One similarity query per n-gram size scores both weightings; each
    * weighting collects its columns under its own per-entity cap. One
    * greedy UMC pass per similarity serves every threshold: greedy UMC
    * decides a pair of score ≥ t only from the pairs ranked above it, so
    * its matches at threshold t are the pass's accepted pairs of score ≥ t.
    */
  def run(p: PreparedPair, truth: DataFrame): BslResult = {
    val pairs = p.candidatePairs.cache()
    pairs.count()
    val tset = Evaluation.truthSet(truth)

    val all = NgramSizes.flatMap { n =>
      val (g1, g2) = (ngrams(p.kb1, n).cache(), ngrams(p.kb2, n).cache())
      val sims = pairSimilarities(g1, g2, pairs).cache()
      val rows = Similarities.flatMap { case (weighting, simCols) =>
        val collected = UniqueMappingClustering.collectCandidates(
          sims, simCols.map(_._2), CapPerEntity)
        val scores = collected.map { case (a, b, ws) => (a, b) -> ws }.toMap
        simCols.zipWithIndex.flatMap { case ((sim, _), idx) =>
          // one pass at t = 0, where UMC still accepts no pair scoring 0
          val accepted = UniqueMappingClustering.cluster(
            collected.map { case (a, b, ws) => (a, b, ws(idx)) }, 1e-12)
          Thresholds.map { t =>
            val m = accepted.takeWhile(pair => scores(pair)(idx) >= t)
            BslConfig(n, weighting, sim, t) -> Evaluation.scorePairsRestricted(m, tset)
          }
        }
      }
      sims.unpersist(); g1.unpersist(); g2.unpersist()
      rows
    }
    pairs.unpersist()

    val (bestCfg, bestScores) = all.maxBy { case (c, s) => (s.f1, -c.threshold) }
    BslResult(bestCfg, bestScores, all)
  }
}
