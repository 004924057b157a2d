package repro.blocking

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Name blocking h_N (paper §3.1) and the α evidence of the blocking graph.
  *
  * A name block exists for every (normalized) name shared by the two KBs.
  * The α weight of an edge is 1 iff the two entities co-occur in a name
  * block of size exactly 2 — one entity per KB (Alg 1 lines 5–9).
  */
object NameBlocking {

  /** Shared name blocks: (name, cnt1, cnt2, comparisons) for names present
    * in both KBs.
    *
    * @param names1 (entity, name) of KB1, distinct, so rows count entities —
    *               from [[repro.kb.NameDiscovery.names]]
    * @param names2 (entity, name) of KB2, distinct
    */
  def sharedNameBlocks(names1: DataFrame, names2: DataFrame): DataFrame =
    TokenBlocking.sharedBlocks(names1, names2, "name", "cnt")

  /** α = 1 edges: pairs from 1×1 name blocks. Output: (e1, e2), distinct.
    * A pair of entities sharing several unique names is still one edge.
    * The block sizes and each KB's entity come from one aggregation.
    */
  def alphaEdges(names1: DataFrame, names2: DataFrame): DataFrame =
    TokenBlocking.sharedBlocks(names1, names2, "name", "cnt",
        max(when(col("kb") === 1, col("entity"))) as "e1",
        max(when(col("kb") === 2, col("entity"))) as "e2")
      .filter(col("cnt1") === 1 && col("cnt2") === 1)
      .select("e1", "e2")
      .distinct()
}
