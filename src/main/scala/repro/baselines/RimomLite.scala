package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.blocking.PreparedPair

/** RiMOM-lite (Shao et al., JCST 2016): iterative instance matching over
  * aligned relations (attribute alignment is part of its required input —
  * paper §5: “this method requires attribute alignment”), with the
  * RiMOM-IM completion heuristic: when all but one pair of neighbors via an
  * aligned relation pair are matched, the remaining pair is matched too.
  */
object RimomLite {
  private val ValueWeight = 0.6
  private val Threshold = 0.42

  def run(spark: SparkSession, p: PreparedPair, relAlignment: Map[String, String]): DataFrame =
    IterativeMatcher.run(spark, p,
      IterativeMatcher.IterConfig(ValueWeight, Threshold,
        IterativeMatcher.alignedCompat(relAlignment),
        siblingCompletion = true))
}
