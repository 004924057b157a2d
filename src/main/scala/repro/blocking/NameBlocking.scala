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
  def sharedNameBlocks(names1: DataFrame, names2: DataFrame): DataFrame = {
    val c1 = names1.groupBy("name").agg(count(lit(1)) as "cnt1")
    val c2 = names2.groupBy("name").agg(count(lit(1)) as "cnt2")
    c1.join(c2, "name").withColumn("comparisons", col("cnt1") * col("cnt2"))
  }

  /** α = 1 edges: pairs from 1×1 name blocks. Output: (e1, e2), distinct.
    * A pair of entities sharing several unique names is still one edge.
    */
  def alphaEdges(names1: DataFrame, names2: DataFrame): DataFrame = {
    val unique = sharedNameBlocks(names1, names2)
      .filter(col("cnt1") === 1 && col("cnt2") === 1)
      .select("name")
    names1.join(broadcast(unique), "name")
      .select(col("entity") as "e1", col("name"))
      .join(names2.select(col("entity") as "e2", col("name")), "name")
      .select("e1", "e2")
      .distinct()
  }
}
