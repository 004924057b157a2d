package repro.kb

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.unsafe.types.UTF8String

import KBModel.KBSummary

/** Automatic discovery of name attributes (paper §2.2, “Entity Names”).
  *
  * From every KB we derive the *global* top-k literal attributes of highest
  * importance; their literal values act as the names of any entity carrying
  * them. Following [32] (as cited by the paper), the support of an
  * attribute here is subject-based — support(p) = |subjects(p)| / |E| —
  * and we combine it with value discriminability via the harmonic mean,
  * mirroring the relation-importance combination of §2.2.
  */
object NameDiscovery {

  /** Statistics of one literal attribute. */
  final case class AttributeScore(
      pred: String, subjects: Long, instances: Long, objects: Long,
      support: Double, discriminability: Double, importance: Double)

  /** Per-attribute statistics from a KB's [[KBModel.summary]]. */
  def scores(s: KBSummary): Seq[AttributeScore] =
    s.attributes.toSeq.map { case (pred, c) =>
      val support = c.subjects.toDouble / s.entities
      val discriminability = c.objects.toDouble / c.instances
      AttributeScore(pred, c.subjects, c.instances, c.objects,
        support, discriminability, KBModel.harmonicMean(support, discriminability))
    }

  /** Importance descending, then pred in Spark's (UTF-8 byte) string order. */
  private val byImportance: Ordering[AttributeScore] = (a, b) => {
    val c = java.lang.Double.compare(b.importance, a.importance)
    if (c != 0) c else UTF8String.fromString(a.pred).compareTo(UTF8String.fromString(b.pred))
  }

  /** The k globally most important literal attributes of the KB
    * (deterministic tie-break on pred).
    */
  def nameAttributes(s: KBSummary, k: Int): Seq[String] =
    scores(s).sorted(byImportance).take(k).map(_.pred)

  /** `name(e)`: normalized literal values of the KB's top-k name attributes.
    * Output: (entity, name), distinct, empty names dropped. Normalization
    * (lowercase + strip non-alphanumerics) makes name blocking robust to
    * the surface-form noise of Web KBs while staying schema-agnostic.
    */
  def names(kb: DataFrame, k: Int): DataFrame = names(kb, KBModel.summary(kb), k)

  /** [[names]] with the KB's summary already computed. */
  def names(kb: DataFrame, s: KBSummary, k: Int): DataFrame = {
    val attrs = nameAttributes(s, k)
    KBModel.literals(kb)
      .filter(col("pred").isin(attrs: _*))
      .select(col("subj") as "entity",
              Tokenizer.normalizeNameCol(col("obj")) as "name")
      .filter(length(col("name")) > 0)
      .distinct()
  }
}
