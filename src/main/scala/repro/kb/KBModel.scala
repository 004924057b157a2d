package repro.kb

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Triple-set representation of an entity Knowledge Base.
  *
  * An entity description is a URI-identifiable set of attribute-value pairs
  * (paper §2). We represent a KB as a DataFrame of triples with schema
  *
  *   subj  LONG    — entity id (globally unique across the two input KBs)
  *   pred  STRING  — attribute name
  *   obj   STRING  — value (literal text, or the rendering of a neighbor)
  *   objId LONG?   — non-null iff the value is another entity of the SAME
  *                   KB, i.e. `pred` is a *relation* and `objId` a *neighbor*
  *
  * All downstream transforms are pure functions over such DataFrames.
  */
object KBModel {

  /** Canonical schema for a KB triple DataFrame. */
  val schema: StructType = StructType(Seq(
    StructField("subj", LongType, nullable = false),
    StructField("pred", StringType, nullable = false),
    StructField("obj", StringType, nullable = false),
    StructField("objId", LongType, nullable = true),
  ))

  /** Build a KB DataFrame from in-memory rows (tests and examples). */
  def fromRows(spark: SparkSession, rows: Seq[(Long, String, String, Option[Long])]): DataFrame = {
    val data = rows.map { case (s, p, o, oid) => Row(s, p, o, oid.map(Long.box).orNull) }
    spark.createDataFrame(spark.sparkContext.parallelize(data, 4), schema)
  }

  /** Attribute-value pairs whose value is a literal (objId is null). */
  def literals(kb: DataFrame): DataFrame = kb.filter(col("objId").isNull)

  /** Attribute-value pairs whose value is a neighbor entity (relations). */
  def relationTriples(kb: DataFrame): DataFrame = kb.filter(col("objId").isNotNull)

  /** Distinct entity ids of the KB, as a single-column frame `entity`. */
  def entities(kb: DataFrame): DataFrame =
    kb.select(col("subj") as "entity").distinct()

  /** Distinct subjects, instances (distinct triples) and objects of one
    * predicate, over either its literal or its relation triples.
    */
  final case class PredicateCounts(subjects: Long, instances: Long, objects: Long)

  /** The per-KB counts that name discovery and relation importance read:
    * |E|, and the counts of every literal attribute and every relation.
    * A pred used both ways appears in both maps with separate counts.
    */
  final case class KBSummary(
      entities: Long,
      attributes: Map[String, PredicateCounts],
      relations: Map[String, PredicateCounts])

  /** [[KBSummary]] of one KB: the one-KB case of [[summaries]]. */
  def summary(kb: DataFrame): KBSummary = summaries(kb).head

  /** [[KBSummary]] of each KB in one aggregation over all of them, grouped
    * by KB and collected to the driver (a KB has few predicates). Objects
    * are literal values for attributes and neighbor ids for relations.
    */
  def summaries(kbs: DataFrame*): Seq[KBSummary] = {
    val isRelation = col("objId").isNotNull
    val rows = kbs.zipWithIndex.map { case (kb, i) =>
        kb.select(lit(i) as "kb", col("subj"), col("pred"), isRelation as "isRelation",
          when(isRelation, col("objId").cast(StringType)).otherwise(col("obj")) as "value")
      }.reduce(_ union _)
      .groupingSets(Seq(Seq(col("kb"), col("pred"), col("isRelation")), Seq(col("kb"))),
        col("kb"), col("pred"), col("isRelation"))
      .agg(grouping_id() as "level",
        countDistinct("subj") as "subjects",
        countDistinct("subj", "value") as "instances",
        countDistinct("value") as "objects")
      .collect()
    kbs.indices.map { i =>
      val (total, perPred) = rows.filter(_.getAs[Int]("kb") == i)
        .partition(_.getAs[Long]("level") != 0L)
      def counts(relation: Boolean): Map[String, PredicateCounts] =
        perPred.filter(_.getAs[Boolean]("isRelation") == relation).map { r =>
          r.getAs[String]("pred") -> PredicateCounts(
            r.getAs[Long]("subjects"), r.getAs[Long]("instances"), r.getAs[Long]("objects"))
        }.toMap
      KBSummary(total.headOption.fold(0L)(_.getAs[Long]("subjects")),
        counts(relation = false), counts(relation = true))
    }
  }

  /** Harmonic mean of a predicate's support and discriminability: its
    * importance (paper §2.2).
    */
  def harmonicMean(support: Double, discriminability: Double): Double =
    2.0 * support * discriminability / (support + discriminability)
}
