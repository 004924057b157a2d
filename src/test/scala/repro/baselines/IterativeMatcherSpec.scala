package repro.baselines

import org.apache.spark.JobCounter

import repro.{SparkSpec, TestKBs}
import repro.blocking.PreparedPair
import repro.core.{Evaluation, MinoanERConfig}
import repro.data.WebKBGen
import repro.graph.BlockingGraph

class IterativeMatcherSpec extends SparkSpec {

  private lazy val figure1 = PreparedPair(TestKBs.kb1(spark), TestKBs.kb2(spark), MinoanERConfig())
  private lazy val tiny = WebKBGen.generate(spark, TestKBs.tinyProfile)
  private lazy val tinyPair = PreparedPair(tiny.kb1, tiny.kb2, MinoanERConfig())
  private lazy val figure1Inputs = IterativeMatcher.prepare(figure1)
  private lazy val tinyInputs = IterativeMatcher.prepare(tinyPair)

  private def scoreTiny(cfg: IterativeMatcher.IterConfig) =
    Evaluation.scorePairsRestricted(IterativeMatcher.run(tinyInputs, cfg),
      Evaluation.truthSet(tiny.truth))

  test("editSimilarity of identical strings is 1") {
    assert(IterativeMatcher.editSimilarity("chef", "chef") === 1.0)
  }

  test("editSimilarity of disjoint strings is low") {
    assert(IterativeMatcher.editSimilarity("abc", "xyz") === 0.0)
  }

  test("editSimilarity handles empty strings") {
    assert(IterativeMatcher.editSimilarity("", "") === 1.0)
    assert(IterativeMatcher.editSimilarity("a", "") === 0.0)
  }

  test("editSimilarity is symmetric") {
    assert(IterativeMatcher.editSimilarity("haschef", "headchef") ===
           IterativeMatcher.editSimilarity("headchef", "haschef"))
  }

  test("generator's Similar relation names are edit-similar, Dissimilar are not") {
    val pSim = TestKBs.tinyProfile // Similar style
    val r1 = WebKBGen.relName(pSim, 1, 0)
    val r2 = WebKBGen.relName(pSim, 2, 0)
    assert(IterativeMatcher.editSimilarity(r1, r2) > 0.6, s"$r1 vs $r2")
  }

  test("nameSeeds finds the unique shared figure-1 name") {
    val seeds = IterativeMatcher.nameSeeds(figure1)
      .collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(seeds === Set((TestKBs.JohnLakeA, TestKBs.JonnyLake)))
  }

  test("nameSeeds and the graph read the pair's one alpha frame") {
    assert(IterativeMatcher.nameSeeds(figure1) eq figure1.alphaEdges)
    assert(BlockingGraph.build(figure1).alphaEdges eq figure1.alphaEdges)
  }

  test("valueScores are normalized and positive for overlapping pairs") {
    val v = IterativeMatcher.valueScores(figure1)
      .collect().map(r => r.getDouble(2))
    assert(v.nonEmpty)
    assert(v.forall(s => s > 0 && s <= 1.0 + 1e-9))
    assert(v.length === 4)
    assert(math.abs(v.sum - 1.8499259117679030) < 1e-12, v.sum)
  }

  test("figure-1: SiGMa-lite style run matches all three pairs via propagation") {
    val align = Map("hasChef" -> "headChef", "territorial" -> "county")
    val compat: IterativeMatcher.RelCompat =
      (p1, p2) => if (align.get(p1).contains(p2)) 1.0 else 0.0
    val m = IterativeMatcher.run(figure1Inputs,
      IterativeMatcher.IterConfig(valueWeight = 0.5, threshold = 0.1, relCompat = compat)).toSet
    assert(m.contains((TestKBs.JohnLakeA, TestKBs.JonnyLake)))
    assert(m.contains((TestKBs.Bray, TestKBs.Berkshire)))
    assert(m.contains((TestKBs.Restaurant1, TestKBs.Restaurant2)))
  }

  test("a high threshold suppresses low-value matches") {
    val compat: IterativeMatcher.RelCompat = (_, _) => 0.0
    val m = IterativeMatcher.run(figure1Inputs,
      IterativeMatcher.IterConfig(valueWeight = 1.0, threshold = 0.99, relCompat = compat))
    // only the name seed; no value score reaches the threshold
    assert(m === Seq((TestKBs.JohnLakeA, TestKBs.JonnyLake)))
  }

  test("matches form a partial 1-1 mapping") {
    val m = IterativeMatcher.run(tinyInputs, IterativeMatcher.sigma(tiny.relAlignment))
    assert(m.map(_._1).distinct.length === m.length)
    assert(m.map(_._2).distinct.length === m.length)
  }

  test("SiGMa-lite on the strongly similar tiny profile reaches high F1") {
    val s = scoreTiny(IterativeMatcher.sigma(tiny.relAlignment))
    assert(s.f1 > 0.8, s"scores: ${s.pct}")
  }

  test("RiMOM-lite runs and produces sane output on the tiny profile") {
    val s = scoreTiny(IterativeMatcher.rimom(tiny.relAlignment))
    assert(s.f1 > 0.5, s"scores: ${s.pct}")
  }

  test("LINDA-lite works on similar relation names") {
    val s = scoreTiny(IterativeMatcher.linda)
    assert(s.precision > 0.7, s"scores: ${s.pct}")
  }

  test("run starts no Spark job: the three presets share one prepare") {
    val in = tinyInputs
    val (_, jobs) = JobCounter(spark.sparkContext) {
      for (cfg <- Seq(IterativeMatcher.sigma(tiny.relAlignment), IterativeMatcher.linda,
                      IterativeMatcher.rimom(tiny.relAlignment)))
        IterativeMatcher.run(in, cfg)
    }
    assert(jobs === 0L)
  }
}
