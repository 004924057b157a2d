package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.udf
import org.apache.spark.util.LongAccumulator

import repro.kb.KBModel
import repro.data.{DatasetProfile, KBProfile}

/** Shared handcrafted fixtures.
  *
  * `kb1`/`kb2` encode the paper's Figure 1 example: a Wikidata-style and a
  * DBpedia-style KB describing the Fat Duck restaurant, its chef and its
  * location. Ids: KB1 = 1..4, KB2 = 101..103.
  */
object TestKBs {

  val Restaurant1 = 1L; val JohnLakeA = 2L; val Bray = 3L; val UK = 4L
  val Restaurant2 = 101L; val JonnyLake = 102L; val Berkshire = 103L

  def kb1(spark: SparkSession): DataFrame = KBModel.fromRows(spark, Seq(
    (Restaurant1, "label", "Fat Duck", None),
    (Restaurant1, "comment", "michelin restaurant bray", None),
    (Restaurant1, "hasChef", "ref:2", Some(JohnLakeA)),
    (Restaurant1, "territorial", "ref:3", Some(Bray)),
    (Restaurant1, "inCountry", "ref:4", Some(UK)),
    (JohnLakeA, "label", "J. Lake", None),
    (JohnLakeA, "comment", "chef cook", None),
    (Bray, "label", "Bray", None),
    (Bray, "comment", "village berkshire england", None),
    (UK, "label", "United Kingdom", None),
  ))

  def kb2(spark: SparkSession): DataFrame = KBModel.fromRows(spark, Seq(
    (Restaurant2, "name", "The Fat Duck", None),
    (Restaurant2, "headChef", "ref:102", Some(JonnyLake)),
    (Restaurant2, "county", "ref:103", Some(Berkshire)),
    (JonnyLake, "name", "J. Lake", None),
    (JonnyLake, "abstract", "english chef", None),
    (Berkshire, "name", "Berkshire", None),
    (Berkshire, "abstract", "county england bray windsor", None),
  ))

  /** Figure-1 ground truth. */
  def truth(spark: SparkSession): DataFrame = {
    import spark.implicits._
    Seq((Restaurant1, Restaurant2), (JohnLakeA, JonnyLake), (Bray, Berkshire))
      .toDF("id1", "id2")
  }

  /** Count and digest of a match set: the first 8 bytes (hex) of the
    * SHA-256 of its pairs sorted by (e1, e2), one "e1,e2" per line. A
    * refactor that must keep a match set keeps both.
    */
  def pin(pairs: Seq[(Long, Long)]): (Int, String) = {
    val lines = pairs.sorted.map { case (a, b) => s"$a,$b" }.mkString("\n")
    val digest = java.security.MessageDigest.getInstance("SHA-256")
      .digest(lines.getBytes("UTF-8")).take(8).map("%02x".format(_)).mkString
    (pairs.length, digest)
  }

  /** `df` behind a non-deterministic filter that counts every row Spark
    * evaluates, and that count. A plan that reads `df` twice counts each of
    * its rows twice.
    */
  def counted(df: DataFrame): (DataFrame, LongAccumulator) = {
    val evaluated = df.sparkSession.sparkContext.longAccumulator
    val count = udf { () => evaluated.add(1); true }.asNondeterministic()
    (df.filter(count()), evaluated)
  }

  /** The (e1, e2) pairs of a match frame. */
  def pairs(matches: DataFrame): Seq[(Long, Long)] =
    matches.select("e1", "e2").collect().map(r => (r.getLong(0), r.getLong(1))).toSeq

  /** A fast generator profile for end-to-end unit tests (SF≈0.01-scale). */
  val tinyProfile: KBProfile = DatasetProfile.restaurantLite.copy(
    name = "tiny",
    n1 = 80, n2 = 200, nMatches = 40,
    seed = 7)

  /** A tiny heterogeneous profile (BBC-like) for unit tests. */
  val tinyHeterogeneous: KBProfile = DatasetProfile.bbcmusicDbpediaLite.copy(
    name = "tiny-het",
    n1 = 120, n2 = 300, nMatches = 60,
    noiseChunks2 = 12,
    seed = 11)
}
