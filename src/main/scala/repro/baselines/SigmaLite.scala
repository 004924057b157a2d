package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.blocking.PreparedPair

/** SiGMa-lite (Lacoste-Julien et al., KDD 2013): greedy collective matching
  * seeded by identical entity names, propagating over *pre-aligned*
  * relations. The true relation alignment is part of its input — modeling
  * the domain-expert alignment the original assumes (paper §5: “linked with
  * pre-aligned relations”); MinoanER needs no such input.
  */
object SigmaLite {
  private val ValueWeight = 0.6
  private val Threshold = 0.32

  def run(spark: SparkSession, p: PreparedPair, relAlignment: Map[String, String]): DataFrame =
    IterativeMatcher.run(spark, p,
      IterativeMatcher.IterConfig(ValueWeight, Threshold,
        IterativeMatcher.alignedCompat(relAlignment)))
}
