package repro.kb

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import KBModel.KBSummary

/** Relation-importance statistics and top-neighbor extraction (paper §2.2,
  * Algorithm 1 lines 35–48).
  *
  * For a relation p of a KB E:
  *   support(p)         = |instances(p)| / |E|²      (Def 2.2)
  *   discriminability(p)= |objects(p)| / |instances(p)|  (Def 2.3)
  *   importance(p)      = harmonic mean of the two
  *
  * Per entity, its relations are ordered by the *global* importance score
  * and the top-N retained; the objects reachable through them are the
  * entity's `topNneighbors`. `topInNeighbors` is the reverse mapping.
  */
object RelationImportance {

  /** Statistics of one relation. */
  final case class RelationScore(
      pred: String, instances: Long, objects: Long,
      support: Double, discriminability: Double, importance: Double)

  /** Per-relation statistics from a KB's [[KBModel.summary]]. */
  def scores(s: KBSummary): Seq[RelationScore] = {
    val n = s.entities.toDouble
    s.relations.toSeq.map { case (pred, c) =>
      val support = c.instances.toDouble / (n * n)
      val discriminability = c.objects.toDouble / c.instances
      RelationScore(pred, c.instances, c.objects,
        support, discriminability, KBModel.harmonicMean(support, discriminability))
    }
  }

  /** Adds each row's relation `importance`, looked up in a driver-side map,
    * and `relRank`: the dense rank of its pred among the entity's relations
    * by (importance desc, pred). All rows of one (entity, pred) share a
    * rank, so rank r is the entity's r-th best distinct relation.
    */
  private def ranked(entityPreds: DataFrame, s: KBSummary): DataFrame = {
    val importance = typedLit(scores(s).map(r => r.pred -> r.importance).toMap)
    val w = Window.partitionBy("entity").orderBy(col("importance").desc, col("pred"))
    entityPreds
      .withColumn("importance", importance(col("pred")))
      .withColumn("relRank", dense_rank().over(w))
  }

  /** `topNneighbors(e)`: distinct neighbors reachable via the entity's
    * top-N relations by global importance (ties broken by pred).
    * Output: (entity, neighbor).
    */
  def topNeighbors(kb: DataFrame, s: KBSummary, n: Int): DataFrame = {
    val triples = KBModel.relationTriples(kb)
      .select(col("subj") as "entity", col("pred"), col("objId") as "neighbor")
    ranked(triples, s)
      .filter(col("relRank") <= n)
      .select("entity", "neighbor")
      .distinct()
  }

  /** `topInNeighbors`: for every entity, the entities that list it among
    * their topNneighbors (Alg 1 lines 44–47).
    * Output: (entity, inNeighbor) — `inNeighbor` has `entity` as top neighbor.
    */
  def topInNeighbors(kb: DataFrame, n: Int): DataFrame =
    topInNeighbors(kb, KBModel.summary(kb), n)

  def topInNeighbors(kb: DataFrame, s: KBSummary, n: Int): DataFrame =
    topNeighbors(kb, s, n)
      .select(col("neighbor") as "entity", col("entity") as "inNeighbor")
}
