package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import scala.collection.mutable

/** Unique Mapping Clustering (paper §5): process candidate pairs in
  * decreasing similarity; accept a pair as a match iff neither entity has
  * been matched yet; stop below the similarity threshold.
  *
  * The greedy pass is inherently sequential, so it runs on the driver over
  * Spark-precomputed scores. Candidate sets are bounded by blocking; a
  * per-entity top-`capPerEntity` window keeps the collected volume safe —
  * pairs beyond an entity's cap can only be accepted after the entity is
  * already matched, where they would be rejected anyway in the overwhelming
  * majority of orders, and the swept thresholds make the residual
  * difference irrelevant (documented deviation).
  */
object UniqueMappingClustering {

  /** Driver-side greedy pass over scored pairs. Deterministic: ties broken
    * by (e1, e2). Returns the matches in acceptance order, i.e. by
    * decreasing score; a pair is decided only from the pairs ranked above
    * it, so the matches at a threshold t are the matches of a pass at any
    * lower threshold that score ≥ t.
    */
  def cluster(pairs: Seq[(Long, Long, Double)], threshold: Double): Seq[(Long, Long)] = {
    val sorted = pairs.sortBy { case (a, b, s) => (-s, a, b) }
    val used1 = mutable.Set.empty[Long]
    val used2 = mutable.Set.empty[Long]
    val out = mutable.ArrayBuffer.empty[(Long, Long)]
    var i = 0
    while (i < sorted.length && sorted(i)._3 >= threshold) {
      val (a, b, _) = sorted(i)
      if (!used1(a) && !used2(b)) {
        used1 += a; used2 += b; out += ((a, b))
      }
      i += 1
    }
    out.toSeq
  }

  /** Collect scored pairs (e1, e2, scores[]) for one or more score
    * columns at once, with a per-entity cap, ready for [[cluster]]. Pairs
    * whose best score is ≤ 0 are dropped. A row survives if it is among the
    * `capPerEntity` best of its e1 or of its e2, both ranked by the max
    * score across the columns. So with several columns the cap is not the
    * union of single-column caps: a row ranked first by one column but
    * below the cap by the max, on both of its entities, is dropped,
    * although a cap on that column alone would keep it.
    */
  def collectCandidates(
      scored: DataFrame,
      scoreCols: Seq[String],
      capPerEntity: Int): Seq[(Long, Long, Array[Double])] = {
    val best = scoreCols.map(col).reduce(greatest(_, _))
    val w1 = Window.partitionBy("e1").orderBy(best.desc, col("e2"))
    val w2 = Window.partitionBy("e2").orderBy(best.desc, col("e1"))
    scored
      .filter(best > 0)
      .withColumn("r1", row_number().over(w1))
      .withColumn("r2", row_number().over(w2))
      .filter(col("r1") <= capPerEntity || col("r2") <= capPerEntity)
      .select((Seq(col("e1"), col("e2")) ++ scoreCols.map(col)): _*)
      .collect()
      .map(r => (r.getLong(0), r.getLong(1),
        scoreCols.indices.map(i => r.getDouble(2 + i)).toArray))
      .toSeq
  }
}
