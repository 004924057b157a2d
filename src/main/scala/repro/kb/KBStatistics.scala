package repro.kb

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Dataset statistics of Table 1 for a single KB.
  *
  * Conventions (matching the paper's extraction notes):
  *  - “attributes” counts distinct literal attributes;
  *  - “relations” counts distinct entity-valued attributes;
  *  - “types” counts distinct values of the rdf:type attribute
  *    (any pred whose local name ends in `type`);
  *  - “vocab.” counts distinct vocabulary prefixes of attribute names —
  *    our generator prefixes every pred with `v<i>:`.
  */
final case class KBStats(
    entities: Long,
    triples: Long,
    avgTokens: Double,
    attributes: Long,
    relations: Long,
    types: Long,
    vocabularies: Long)

object KBStatistics {

  /** The rdf:type-like attribute filter used for the “types” statistic. */
  private def isTypePred = col("pred").rlike("(?i)(^|[:#/])type$")

  /** A pred's vocabulary prefix: the non-empty text before its first `:`. */
  private val Vocabulary = "([^:]+):".r

  /** Statistics of `kb` from its summary `s` and its entity `tokens`. Triples and
    * types are counted on `kb`: `s` counts distinct triples, and objects per pred.
    */
  def compute(kb: DataFrame, s: KBModel.KBSummary, tokens: DataFrame): KBStats = {
    val triples = kb.count()
    val avgTok = Tokenizer.averageTokens(tokens)
    val types = KBModel.literals(kb).filter(isTypePred).select("obj").distinct().count()
    // every pred is a key of one of the two maps
    val vocabularies = (s.attributes.keySet ++ s.relations.keySet)
      .flatMap(Vocabulary.findPrefixMatchOf(_).map(_.group(1))).size
    KBStats(s.entities, triples, avgTok, s.attributes.size, s.relations.size, types, vocabularies)
  }
}
