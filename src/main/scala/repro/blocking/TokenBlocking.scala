package repro.blocking

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Token blocking h_T (paper §3.1) with Block Purging.
  *
  * A token block exists for every token shared by the two KBs; its
  * comparison cardinality in clean-clean ER is EF1(t)·EF2(t). Excessively
  * large blocks (stop-words) are discarded by Block Purging. The paper
  * adopts, via Meta-blocking [27], the comparison-based criterion of
  * Papadakis et al. (TKDE 2013), which walks the distinct block
  * cardinalities in ascending order and stops where cumulative comparisons
  * start to grow proportionally faster than cumulative block assignments.
  * Deviation: this implementation uses an iterated 10×-mean heuristic
  * instead (see [[purgeMaxComparisons]]), with the same intent of cutting
  * the stop-word tail.
  */
object TokenBlocking {

  /** Purging outcome for reporting. */
  final case class PurgeStats(maxComparisons: Long, keptBlocks: Long, purgedBlocks: Long)

  /** Shared token blocks across the two KBs.
    *
    * @param et1 (entity, token) of KB1 — from [[repro.kb.Tokenizer.entityTokens]]
    * @param et2 (entity, token) of KB2
    * @return (token, ef1, ef2, comparisons) for every token present in both
    */
  def sharedTokenBlocks(et1: DataFrame, et2: DataFrame): DataFrame = {
    val ef1 = repro.kb.Tokenizer.entityFrequency(et1).withColumnRenamed("ef", "ef1")
    val ef2 = repro.kb.Tokenizer.entityFrequency(et2).withColumnRenamed("ef", "ef2")
    ef1.join(ef2, "token")
      .withColumn("comparisons", col("ef1") * col("ef2"))
  }

  /** The Block Purging cardinality threshold.
    *
    * Robust iterated-mean criterion with the same intent as the
    * comparison-based Block Purging the paper adopts via [26, 27]: a
    * stop-word block suggests orders of magnitude more comparisons than the
    * typical content-token block, so we repeatedly drop blocks whose
    * comparison cardinality exceeds `factor ×` the mean cardinality of the
    * retained blocks, until a fixpoint. Uniform distributions are left
    * untouched (threshold ≥ factor × mean); heavy tails are cut at the
    * stop-word knee. Distinct cardinalities are few, so the aggregates are
    * collected to the driver.
    */
  def purgeMaxComparisons(blocks: DataFrame, factor: Double = 10.0): Long =
    thresholdOf(histogram(blocks), factor)

  /** (comparisons, number of blocks) per distinct block cardinality,
    * ascending, collected to the driver.
    */
  private def histogram(blocks: DataFrame): Array[(Long, Long)] =
    blocks
      .groupBy("comparisons")
      .agg(count(lit(1)) as "nblocks")
      .orderBy("comparisons")
      .collect()
      .map(r => (r.getLong(0), r.getLong(1)))

  private def thresholdOf(byCard: Array[(Long, Long)], factor: Double): Long = {
    if (byCard.isEmpty) return 0L
    var threshold = Long.MaxValue
    var changed = true
    var iter = 0
    while (changed && iter < 20) {
      val kept = byCard.filter(_._1 <= threshold)
      val nBlocks = kept.map(_._2).sum
      val totalComp = kept.map { case (c, n) => c.toDouble * n }.sum
      val next = math.max(factor, factor * totalComp / math.max(1L, nBlocks)).toLong
      changed = next < threshold
      threshold = if (changed) next else threshold
      iter += 1
    }
    math.min(threshold, byCard.last._1)
  }

  /** Apply Block Purging; returns the retained blocks (over the cached
    * input) plus stats, counted from the cardinality histogram.
    */
  def purgedBlocks(blocksIn: DataFrame, factor: Double = 10.0): (DataFrame, PurgeStats) = {
    val blocks = blocksIn.cache()
    val byCard = histogram(blocks)
    val maxC = thresholdOf(byCard, factor)
    val keptN = byCard.collect { case (c, n) if c <= maxC => n }.sum
    val total = byCard.map(_._2).sum
    (blocks.filter(col("comparisons") <= maxC), PurgeStats(maxC, keptN, total - keptN))
  }

  /** Convenience: shared blocks of two KBs after purging. */
  def purgedSharedBlocks(et1: DataFrame, et2: DataFrame): (DataFrame, PurgeStats) =
    purgedBlocks(sharedTokenBlocks(et1, et2))
}
