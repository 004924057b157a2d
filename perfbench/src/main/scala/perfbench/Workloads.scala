package perfbench

import repro.data.{DatasetProfile, KBProfile}

/** The benchmark's workloads. Each one is a dataset profile re-seeded from
  * the benchmark's `--seed` (the program only ever sees the generated KBs)
  * plus the correctness floor its operation must meet.
  *
  * @param f1Floor restricted F1 floor of the full pipeline, the one
  *                `Table3Bench` asserts for the profile
  */
final case class Workload(name: String, base: KBProfile, scale: Double, f1Floor: Double) {
  def profile(seed: Long): KBProfile =
    base.copy(
      n1 = (base.n1 * scale).toInt, n2 = (base.n2 * scale).toInt,
      nMatches = (base.nMatches * scale).toInt, seed = seed)
}

object Workloads {
  /** Tiny KBs: wall time is driver-side cost per Spark job and plan. */
  val resolveSmall = Workload("resolve-small", DatasetProfile.restaurantLite, 1.0, 0.9)
  /** Half-size YAGO-IMDb analogue: the same jobs with about twice the
    * executor work (β and γ joins) of `resolveSmall`.
    */
  val resolveLarge = Workload("resolve-large", DatasetProfile.yagoImdbLite, 0.5, 0.7)
  /** Table-4 ablation (one graph, five rule variants, each scored). Run on
    * demand only: one run exceeds the time a gated run may take.
    */
  val ablationBbcmusic = Workload("ablation-bbcmusic", DatasetProfile.bbcmusicDbpediaLite, 1.0, 0.7)

  val all: Seq[Workload] = Seq(resolveSmall, resolveLarge, ablationBbcmusic)

  def byName(n: String): Workload =
    all.find(_.name == n).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$n' (known: ${all.map(_.name).mkString(", ")})"))
}
