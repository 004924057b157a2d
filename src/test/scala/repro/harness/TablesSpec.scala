package repro.harness

import org.apache.spark.storage.StorageLevel

import repro.{SparkSpec, TestKBs}
import repro.blocking.BlockStats
import repro.core.Scores
import repro.kb.Tokenizer

class TablesSpec extends SparkSpec {

  private lazy val bundle = Tables.bundle(spark,
    TestKBs.tinyProfile.copy(name = "restaurant-lite"))

  test("table1 computes stats for both KBs") {
    val r = Tables.table1(bundle)
    assert(r.stats1.entities === TestKBs.tinyProfile.n1)
    assert(r.stats2.entities === TestKBs.tinyProfile.n2)
    assert(r.matches === TestKBs.tinyProfile.nMatches)
  }

  test("renderTable1 includes paper and measured columns") {
    val out = Tables.renderTable1(bundle, Tables.table1(bundle))
    assert(out.contains("E1/E2 entities"))
    assert(out.contains("339/2256")) // paper value for the restaurant analogue
    assert(out.contains(s"${TestKBs.tinyProfile.n1}/${TestKBs.tinyProfile.n2}"))
  }

  test("table2 block recall is high on the strong tiny profile") {
    val s = Tables.table2(bundle)
    assert(s.recall > 90.0, s"recall=${s.recall}")
    assert(s.tokenComparisons > 0)
    assert(s === BlockStats(nameBlocks = 38, tokenBlocks = 423, nameComparisons = 38,
      tokenComparisons = 473, cartesian = 16000.0, precision = 7.8277886497064575,
      recall = 100.0, f1 = 14.51905626134301, coveredMatches = 40, totalMatches = 40))
  }

  test("renderTable2 renders every statistic row") {
    val out = Tables.renderTable2(bundle, Tables.table2(bundle))
    for (k <- Seq("|B_N|", "|B_T|", "Precision", "Recall", "F1"))
      assert(out.contains(k), s"missing $k")
  }

  test("systemsFor follows the paper's reported cells") {
    assert(Tables.systemsFor("restaurant-lite") ===
      Seq("SiGMa", "LINDA", "RiMOM", "PARIS", "BSL", "MinoanER"))
    assert(Tables.systemsFor("bbcmusic-dbpedia-lite") ===
      Seq("PARIS", "BSL", "MinoanER"))
  }

  test("runSystem executes MinoanER on the tiny bundle") {
    val s = Tables.runSystem(spark, bundle, "MinoanER")
    assert(s.f1 > 0.8, s.pct)
  }

  test("runSystem keeps every system's Table-3 scores") {
    val got = Seq("SiGMa", "LINDA", "RiMOM", "PARIS", "BSL", "MinoanER")
      .map(sys => sys -> Tables.runSystem(spark, bundle, sys))
    assert(got === Seq(
      "SiGMa" -> Scores(1.0, 0.975, 0.9873417721518987, 39, 39, 40),
      "LINDA" -> Scores(1.0, 0.675, 0.8059701492537313, 27, 27, 40),
      "RiMOM" -> Scores(1.0, 0.975, 0.9873417721518987, 39, 39, 40),
      "PARIS" -> Scores(1.0, 1.0, 1.0, 40, 40, 40),
      "BSL" -> Scores(1.0, 1.0, 1.0, 40, 40, 40),
      "MinoanER" -> Scores(1.0, 1.0, 1.0, 40, 40, 40)))
  }

  test("table4 keeps every variant's scores") {
    assert(Tables.table4(spark, bundle) === Seq(
      "R1" -> Scores(1.0, 0.7, 0.8235294117647058, 28, 28, 40),
      "R2" -> Scores(1.0, 1.0, 1.0, 40, 40, 40),
      "R3" -> Scores(1.0, 1.0, 1.0, 40, 40, 40),
      "NoR4" -> Scores(1.0, 1.0, 1.0, 40, 40, 40),
      "NoNeighbors" -> Scores(1.0, 1.0, 1.0, 40, 40, 40)))
  }

  test("table4 produces one row per ablation variant") {
    val rows = Tables.table4(spark, bundle)
    assert(rows.map(_._1) === Seq("R1", "R2", "R3", "NoR4", "NoNeighbors"))
    assert(rows.forall(_._2.truthSize === TestKBs.tinyProfile.nMatches))
    // the prepared pair's caches are released
    assert(Tokenizer.entityTokens(bundle.kb1).storageLevel === StorageLevel.NONE)
    assert(Tokenizer.entityTokens(bundle.kb2).storageLevel === StorageLevel.NONE)
  }

  test("renderScoresTable shows dashes for unreported paper cells") {
    val rows = Seq("LINDA" -> Scores(1, 1, 1, 1, 1, 1))
    val out = Tables.renderScoresTable("Table 3",
      bundle.copy(profile = bundle.profile.copy(name = "yago-imdb-lite")),
      PaperNumbers.table3, rows)
    assert(out.contains("-"))
  }
}
