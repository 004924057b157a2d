package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Value-evidence (β) computation — Definition 2.1 via the token-block
  * inverted index (Algorithm 1 lines 10–19, a Meta-blocking weighting pass).
  *
  *   valueSim(e1, e2) = Σ_{t ∈ tokens(e1) ∩ tokens(e2)}
  *                        1 / log2(EF1(t)·EF2(t) + 1)
  *
  * Only tokens surviving Block Purging contribute (the paper bounds the
  * computation the same way); a purged stop-word token's weight would be
  * negligible anyway.
  */
object ValueSimilarity {

  /** Per-token edge weight 1/log2(ef1·ef2 + 1). */
  def tokenWeight(ef1: org.apache.spark.sql.Column, ef2: org.apache.spark.sql.Column) =
    lit(1.0) / log2(ef1 * ef2 + lit(1.0))

  /** All β pairs from the purged shared token blocks.
    *
    * @param et1 (entity, token) of KB1
    * @param et2 (entity, token) of KB2
    * @param blocks purged shared blocks (token, ef1, ef2, comparisons)
    * @return (e1, e2, beta) — every pair co-occurring in ≥1 retained block
    */
  def betaPairs(et1: DataFrame, et2: DataFrame, blocks: DataFrame): DataFrame = {
    val weighted = blocks.select(col("token"),
      tokenWeight(col("ef1"), col("ef2")) as "w")
    et1.select(col("entity") as "e1", col("token"))
      .join(broadcast(weighted), "token")
      .join(et2.select(col("entity") as "e2", col("token")), "token")
      .groupBy("e1", "e2")
      .agg(sum("w") as "beta")
  }

  /** Driver-side reference implementation of Def 2.1 (tests). EFs are over
    * the FULL token sets of each KB; `purged` optionally restricts the
    * contributing tokens, mirroring [[betaPairs]].
    */
  def valueSimReference(
      tokens1: Map[Long, Set[String]],
      tokens2: Map[Long, Set[String]],
      e1: Long, e2: Long,
      purged: Set[String] = Set.empty): Double = {
    val ef1 = tokens1.values.toSeq
    val ef2 = tokens2.values.toSeq
    val shared = tokens1.getOrElse(e1, Set.empty) intersect tokens2.getOrElse(e2, Set.empty)
    shared.filterNot(purged).toSeq.map { t =>
      val f1 = ef1.count(_.contains(t)).toDouble
      val f2 = ef2.count(_.contains(t)).toDouble
      1.0 / (math.log(f1 * f2 + 1.0) / math.log(2.0))
    }.sum
  }
}
