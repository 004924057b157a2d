package repro.kb

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Schema-agnostic token extraction (paper §2.1).
  *
  * Tokens are single words in attribute values, regardless of the attribute:
  * literal values are lowercased and split on any non-letter/non-digit run.
  * Numbers and dates are treated exactly like strings (paper, footnote 4).
  */
object Tokenizer {

  /** Splitting regex: any run of characters that is neither letter nor digit. */
  val TokenSplit = "[^\\p{L}\\p{N}]+"

  /** Name normalization: lowercase and strip every non-alphanumeric char.
    * Used for name blocking so surface-form noise (case, punctuation,
    * token order is NOT normalized) does not break exact-name co-occurrence.
    */
  def normalizeName(s: String): String =
    s.toLowerCase.replaceAll("[^\\p{L}\\p{N}]", "")

  /** Column-level variant of [[normalizeName]]. */
  def normalizeNameCol(c: org.apache.spark.sql.Column): org.apache.spark.sql.Column =
    regexp_replace(lower(c), "[^\\p{L}\\p{N}]", "")

  /** Driver-side tokenization (tests, small data). */
  def tokenize(s: String): Seq[String] =
    s.toLowerCase.split(TokenSplit).toSeq.filter(_.nonEmpty)

  /** Distinct (entity, token) pairs over the literal values of a KB.
    *
    * `tokens(e_i)` of Definition 2.1 is a set, so duplicates within an
    * entity are collapsed; EF and valueSim are both defined over this frame.
    */
  def entityTokens(kb: DataFrame): DataFrame =
    KBModel.literals(kb)
      .select(col("subj") as "entity",
              explode(split(lower(col("obj")), TokenSplit)) as "token")
      .filter(length(col("token")) > 0)
      .distinct()

  /** Average number of (distinct) tokens per entity — the “av. tokens”
    * statistic of Table 1.
    */
  def averageTokens(entityTokens: DataFrame): Double = {
    val r = entityTokens.groupBy("entity").agg(count("token") as "n")
      .agg(avg("n") as "avgTokens").collect()
    if (r.isEmpty || r.head.isNullAt(0)) 0.0 else r.head.getDouble(0)
  }
}
