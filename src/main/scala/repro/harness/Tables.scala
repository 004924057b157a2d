package repro.harness

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.blocking.{BlockStatistics, BlockStats, PreparedPair}
import repro.core._
import repro.data.{KBProfile, WebKBGen}
import repro.graph.BlockingGraph
import repro.kb.{KBStatistics, KBStats}
import repro.baselines._

/** Builds the paper's evaluation tables (paper numbers vs measured) over
  * the synthetic dataset analogues. Shared by the `jobs.Reproduce`
  * entrypoint and the `bench/` suites.
  */
object Tables {

  final case class Bundle(profile: KBProfile, gen: WebKBGen.Generated) {
    def kb1: DataFrame = gen.kb1
    def kb2: DataFrame = gen.kb2
    def truth: DataFrame = gen.truth
  }

  def bundle(spark: SparkSession, profile: KBProfile): Bundle = {
    val g = WebKBGen.generate(spark, profile)
    g.kb1.cache(); g.kb2.cache(); g.truth.cache()
    g.kb1.count(); g.kb2.count(); g.truth.count()
    Bundle(profile, g)
  }

  def releaseBundle(b: Bundle): Unit = {
    b.kb1.unpersist(); b.kb2.unpersist(); b.truth.unpersist()
  }

  // ------------------------------------------------------------- Table 1

  final case class Table1Result(stats1: KBStats, stats2: KBStats, matches: Long)

  def table1(b: Bundle): Table1Result = {
    val p = PreparedPair(b.kb1, b.kb2, MinoanERConfig())
    try Table1Result(KBStatistics.compute(b.kb1, p.summary1, p.tokens1),
      KBStatistics.compute(b.kb2, p.summary2, p.tokens2), b.truth.count())
    finally p.unpersist()
  }

  def renderTable1(b: Bundle, r: Table1Result): String = {
    val p = PaperNumbers.table1(b.profile.name)
    val sb = new StringBuilder
    sb ++= s"== Table 1 - ${b.profile.name} (paper | measured) ==\n"
    def row(n: String, paper: String, m: String): Unit =
      sb ++= f"  $n%-16s ${paper}%-24s | $m%s\n"
    row("E1/E2 entities", s"${p.e1}/${p.e2}", s"${r.stats1.entities}/${r.stats2.entities}")
    row("E1/E2 triples", s"${p.t1}/${p.t2}", s"${r.stats1.triples}/${r.stats2.triples}")
    row("E1/E2 av.tokens", f"${p.avgTok1}%.2f/${p.avgTok2}%.2f",
        f"${r.stats1.avgTokens}%.2f/${r.stats2.avgTokens}%.2f")
    row("attributes", p.attrs, s"${r.stats1.attributes}/${r.stats2.attributes}")
    row("relations", p.rels, s"${r.stats1.relations}/${r.stats2.relations}")
    row("types", p.types, s"${r.stats1.types}/${r.stats2.types}")
    row("vocabularies", p.vocab, s"${r.stats1.vocabularies}/${r.stats2.vocabularies}")
    row("matches", s"${p.matches}", s"${r.matches}")
    sb.result()
  }

  // ------------------------------------------------------------- Table 2

  def table2(b: Bundle): BlockStats = {
    val p = PreparedPair(b.kb1, b.kb2, MinoanERConfig())
    try BlockStatistics.compute(p, b.truth) finally p.unpersist()
  }

  def renderTable2(b: Bundle, s: BlockStats): String = {
    val p = PaperNumbers.table2(b.profile.name)
    val sb = new StringBuilder
    sb ++= s"== Table 2 - ${b.profile.name} (paper | measured) ==\n"
    def row(n: String, paper: String, m: String): Unit =
      sb ++= f"  $n%-12s ${paper}%-14s | $m%s\n"
    row("|B_N|", f"${p.bN}%.0f", s"${s.nameBlocks}")
    row("|B_T|", f"${p.bT}%.0f", s"${s.tokenBlocks}")
    row("||B_N||", f"${p.compN}%.3g", f"${s.nameComparisons.toDouble}%.3g")
    row("||B_T||", f"${p.compT}%.3g", f"${s.tokenComparisons.toDouble}%.3g")
    row("|E1|*|E2|", f"${p.cartesian}%.3g", f"${s.cartesian}%.3g")
    row("Precision", f"${p.precision}%.3g", f"${s.precision}%.3g")
    row("Recall", f"${p.recall}%.2f", f"${s.recall}%.2f")
    row("F1", f"${p.f1}%.3g", f"${s.f1}%.3g")
    sb.result()
  }

  // ------------------------------------------------------------- Table 3

  /** Which systems the paper reports for each dataset. */
  def systemsFor(profileName: String): Seq[String] =
    Seq("SiGMa", "LINDA", "RiMOM", "PARIS", "BSL", "MinoanER")
      .filter(s => PaperNumbers.table3(s).contains(profileName))

  /** The restricted P/R/F1 of one system over the bundle's prepared pair
    * `p` (BSL reports the best of its own grid sweep). The iterative
    * systems read `iter`, the collective-matching engine's inputs of `p`,
    * which the others never evaluate.
    */
  def runSystem(spark: SparkSession, b: Bundle, p: PreparedPair, system: String,
                iter: => IterativeMatcher.Inputs): Scores = {
    def score(matches: DataFrame) = Evaluation.scoreRestricted(matches, b.truth)
    def scoreIterative(cfg: IterativeMatcher.IterConfig) =
      Evaluation.scorePairsRestricted(IterativeMatcher.run(iter, cfg), Evaluation.truthSet(b.truth))
    system match {
      case "BSL" => BSL.run(p, b.truth).bestScores
      case "MinoanER" => score(MinoanER.matchGraph(BlockingGraph.build(p), p))
      case "PARIS" => score(ParisLite.run(spark, p))
      case "SiGMa" => scoreIterative(IterativeMatcher.sigma(b.gen.relAlignment))
      case "LINDA" => scoreIterative(IterativeMatcher.linda)
      case "RiMOM" => scoreIterative(IterativeMatcher.rimom(b.gen.relAlignment))
      case other => sys.error(s"unknown system: $other")
    }
  }

  /** Every system the paper reports for the bundle, over one prepared pair.
    * The iterative systems' inputs are collected once, on first use.
    */
  def table3(spark: SparkSession, b: Bundle): Seq[(String, Scores)] = {
    val p = PreparedPair(b.kb1, b.kb2, MinoanERConfig())
    lazy val iter = IterativeMatcher.prepare(p)
    try systemsFor(b.profile.name).map(s => s -> runSystem(spark, b, p, s, iter))
    finally p.unpersist()
  }

  def renderScoresTable(title: String, b: Bundle,
                        paper: Map[String, Map[String, PaperNumbers.PRF]],
                        rows: Seq[(String, Scores)]): String = {
    val sb = new StringBuilder
    sb ++= s"== $title - ${b.profile.name} (paper P/R/F1 | measured P/R/F1) ==\n"
    for ((name, s) <- rows) {
      val ps = paper.get(name).flatMap(_.get(b.profile.name))
        .map { case (p, r, f) => f"$p%.2f/$r%.2f/$f%.2f" }.getOrElse("-")
      sb ++= f"  $name%-12s $ps%-22s | ${s.pct}%s\n"
    }
    sb.result()
  }

  // ------------------------------------------------------------- Table 4

  val table4Variants: Seq[(String, MinoanER.Variant)] = Seq(
    "R1" -> MinoanER.Variant.R1Only,
    "R2" -> MinoanER.Variant.R2Only,
    "R3" -> MinoanER.Variant.R3Only,
    "NoR4" -> MinoanER.Variant.NoR4,
    "NoNeighbors" -> MinoanER.Variant.NoNeighbors,
  )

  def table4(spark: SparkSession, b: Bundle,
             cfg: MinoanERConfig = MinoanERConfig()): Seq[(String, Scores)] = {
    val p = PreparedPair(b.kb1, b.kb2, cfg)
    try {
      val g = BlockingGraph.build(p)
      table4Variants.map { case (name, v) =>
        name -> Evaluation.scoreRestricted(MinoanER.matchGraph(g, p, v), b.truth)
      }
    } finally p.unpersist()
  }
}
