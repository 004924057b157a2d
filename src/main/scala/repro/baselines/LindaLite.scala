package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.blocking.PreparedPair

/** LINDA-lite (Böhm et al., CIKM 2012): like SiGMa, but fully automated —
  * relations are considered compatible when their *names* are similar
  * (small edit distance), a requirement that rarely holds under the extreme
  * schema heterogeneity of Web data (paper §5). Its published Restaurant
  * numbers show high precision / low recall, modeled by the conservative
  * acceptance threshold.
  */
object LindaLite {
  private val ValueWeight = 0.7
  private val Threshold = 0.5
  private val MinNameSim = 0.75

  def run(spark: SparkSession, p: PreparedPair): DataFrame = {
    val compat: IterativeMatcher.RelCompat = (p1, p2) => {
      val s = IterativeMatcher.editSimilarity(stripVocab(p1), stripVocab(p2))
      if (s >= MinNameSim) s else 0.0
    }
    IterativeMatcher.run(spark, p,
      IterativeMatcher.IterConfig(ValueWeight, Threshold, compat))
  }

  private def stripVocab(p: String): String = p.dropWhile(_ != ':').drop(1) match {
    case "" => p
    case s => s
  }
}
