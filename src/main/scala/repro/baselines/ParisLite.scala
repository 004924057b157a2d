package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.blocking.PreparedPair
import repro.core.UniqueMappingClustering
import repro.kb.KBModel

/** PARIS-lite — a from-scratch reimplementation of the probabilistic
  * iterative matcher of Suchanek et al. (PVLDB 2012) at the fidelity needed
  * for the paper's comparison (Table 3).
  *
  * Faithful behavioral core:
  *  1. *Literal evidence*: two entities sharing an EXACT literal value `v`
  *     receive evidence weighted by the value's inverse functionality,
  *     `1 / (cnt1(v) · cnt2(v))`; evidence combines by noisy-or
  *     (`P = 1 − Π(1 − w)`, computed as `1 − exp(Σ log(1 − w))`).
  *     Highly frequent values are ignored (they carry no identification
  *     power — PARIS's normalization achieves the same).
  *  2. *Iterations*: relations are aligned by how often they connect
  *     already-matched subject AND object pairs; matched neighbors reached
  *     through aligned relations add evidence scaled by both relations'
  *     functionality (functional relations identify their subjects).
  *  3. Acceptance: noisy-or probability ≥ threshold + Unique Mapping
  *     Clustering (PARIS keeps the maximal-probability assignment).
  *
  * Like real PARIS, this matcher depends on exact value equality and
  * structural (functional-relation) agreement: it excels on structurally
  * similar KB pairs (YAGO–IMDb analogue) and collapses under surface-form
  * noise and schema heterogeneity (BBCmusic–DBpedia analogue).
  */
object ParisLite {

  private val Iterations = 3
  private val AcceptThreshold = 0.5
  private val MaxValuePairs = 64L // ignore literal values with cnt1·cnt2 above this
  private val CapPerEntity = 50

  /** Literal-equality evidence: (e1, e2, logNot) where
    * logNot = Σ log(1 − w) over shared exact values.
    */
  private def literalEvidence(kb1: DataFrame, kb2: DataFrame): DataFrame = {
    def vals(kb: DataFrame, side: Int) =
      KBModel.literals(kb).select(col("subj") as s"e$side", col("obj") as "v").distinct()
    val c1 = vals(kb1, 1).groupBy("v").agg(count(lit(1)) as "cnt1")
    val c2 = vals(kb2, 2).groupBy("v").agg(count(lit(1)) as "cnt2")
    val weights = c1.join(c2, "v")
      .filter(col("cnt1") * col("cnt2") <= MaxValuePairs)
      .select(col("v"),
        (lit(1.0) / (col("cnt1") * col("cnt2"))) as "w")
    vals(kb1, 1).join(weights, "v")
      .join(vals(kb2, 2), "v")
      .groupBy("e1", "e2")
      .agg(sum(log(lit(1.0) - least(col("w"), lit(0.99)))) as "logNot")
  }

  /** Relation functionality fun(r) = |distinct subjects| / |instances|,
    * from the KB's [[KBModel.KBSummary]]. Output: (p<side>, fun<side>, inst<side>).
    */
  private def functionality(spark: SparkSession, s: KBModel.KBSummary, side: Int): DataFrame =
    spark.createDataFrame(s.relations.toSeq.map { case (p, c) =>
      (p, c.subjects.toDouble / c.instances, c.instances) })
      .toDF(s"p$side", s"fun$side", s"inst$side")

  /** One propagation round: evidence for (x, y) from matched neighbor pairs
    * reached through relation pairs aligned by the current matches.
    */
  private def relationEvidence(
      kb1: DataFrame, kb2: DataFrame,
      fun1: DataFrame, fun2: DataFrame,
      matches: DataFrame): DataFrame = {
    val r1 = KBModel.relationTriples(kb1).select(col("subj") as "x", col("pred") as "p1", col("objId") as "nx").distinct()
    val r2 = KBModel.relationTriples(kb2).select(col("subj") as "y", col("pred") as "p2", col("objId") as "ny").distinct()
    val m = matches.select(col("e1"), col("e2"))

    // relation alignment support: both endpoints matched
    val joint = r1
      .join(m.select(col("e1") as "x", col("e2") as "y"), "x")
      .join(r2, "y")
      .join(m.select(col("e1") as "nx", col("e2") as "ny"), Seq("nx", "ny"), "left_semi")
    val alignCounts = joint.groupBy("p1", "p2").agg(count(lit(1)) as "joint")
    val align = alignCounts.join(fun1, "p1").join(fun2, "p2")
      .select(col("p1"), col("p2"),
        least(lit(1.0), col("joint") / least(col("inst1"), col("inst2"))) as "align",
        col("fun1"), col("fun2"))

    // evidence: (x, y) gains w = align · fun1 · fun2 per matched neighbor pair
    r1.join(r2.join(m.select(col("e1") as "nx", col("e2") as "ny"), Seq("ny"))
              .select("y", "p2", "nx", "ny"),
            Seq("nx"))
      .join(align, Seq("p1", "p2"))
      .select(col("x") as "e1", col("y") as "e2",
        (col("align") * col("fun1") * col("fun2")) as "w")
      .groupBy("e1", "e2")
      .agg(sum(log(lit(1.0) - least(col("w"), lit(0.99)))) as "logNot")
  }

  /** Run PARIS-lite on a prepared pair; returns matches (e1, e2). */
  def run(spark: SparkSession, p: PreparedPair): DataFrame = {
    import spark.implicits._
    val lit0 = literalEvidence(p.kb1, p.kb2).cache()
    lit0.count()
    val fun1 = functionality(spark, p.summary1, 1)
    val fun2 = functionality(spark, p.summary2, 2)

    def accept(evidence: DataFrame): Seq[(Long, Long)] = {
      val probs = evidence.select(col("e1"), col("e2"),
        (lit(1.0) - exp(col("logNot"))) as "score")
      UniqueMappingClustering.cluster(
        UniqueMappingClustering.collectCandidates(probs, Seq("score"), CapPerEntity)
          .map { case (a, b, s) => (a, b, s(0)) },
        AcceptThreshold)
    }

    var matches = accept(lit0).toDF("e1", "e2")
    for (_ <- 1 to Iterations) {
      val rel = relationEvidence(p.kb1, p.kb2, fun1, fun2, matches)
      val combined = lit0
        .unionByName(rel)
        .groupBy("e1", "e2")
        .agg(sum("logNot") as "logNot")
      matches = accept(combined).toDF("e1", "e2")
    }
    lit0.unpersist()
    matches
  }
}
