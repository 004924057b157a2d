package repro.blocking

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Block statistics of Table 2.
  *
  * For a KB pair and its name/token blocks:
  *   |B_N|, |B_T|   — numbers of shared name / (purged) token blocks
  *   ‖B_N‖, ‖B_T‖   — total comparisons they suggest (Σ |b¹|·|b²|)
  *   |E1|·|E2|      — the Cartesian brute-force comparison count
  *   Precision      — % of suggested comparisons that are matches
  *                    (PQ: covered matches / total comparisons)
  *   Recall         — % of ground-truth matches co-occurring in ≥1 block (PC)
  *   F1             — harmonic mean of the two
  */
final case class BlockStats(
    nameBlocks: Long,
    tokenBlocks: Long,
    nameComparisons: Long,
    tokenComparisons: Long,
    cartesian: Double,
    precision: Double,
    recall: Double,
    f1: Double,
    coveredMatches: Long,
    totalMatches: Long)

object BlockStatistics {

  /** Compute Table-2 statistics of a prepared pair's name blocks and
    * purged token blocks against the ground truth (id1, id2).
    */
  def compute(p: PreparedPair, truth: DataFrame): BlockStats = {

    // a block frame's count and total comparisons, in one aggregation
    def sizeAndComparisons(blocks: DataFrame): (Long, Long) = {
      val r = blocks.agg(count(lit(1)), coalesce(sum(col("comparisons")), lit(0L))).head()
      (r.getLong(0), r.getLong(1))
    }

    val (bN, compN) = sizeAndComparisons(NameBlocking.sharedNameBlocks(p.names1, p.names2))
    val (bT, compT) = sizeAndComparisons(p.blocks)

    // A truth pair is covered iff it shares a retained token or any name.
    val covered = truth.select(col("id1") as "e1", col("id2") as "e2").distinct()
      .join(p.candidatePairs, Seq("e1", "e2"), "left_semi").count()
    val total = truth.count()

    val comparisons = (compN + compT).toDouble
    val precision = if (comparisons == 0) 0.0 else 100.0 * covered / comparisons
    val recall = if (total == 0) 0.0 else 100.0 * covered / total
    val f1 = if (precision + recall == 0) 0.0 else 2 * precision * recall / (precision + recall)

    BlockStats(bN, bT, compN, compT, p.summary1.entities.toDouble * p.summary2.entities,
      precision, recall, f1, covered, total)
  }
}
