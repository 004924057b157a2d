package repro.harness

import org.apache.spark.JobCounter
import org.apache.spark.storage.StorageLevel

import repro.{SparkSpec, TestKBs}
import repro.blocking.{BlockStats, PreparedPair}
import repro.core.{MinoanERConfig, Scores}
import repro.data.DatasetProfile
import repro.kb.{KBStats, Tokenizer}

class TablesSpec extends SparkSpec {

  private lazy val bundle = Tables.bundle(spark,
    TestKBs.tinyProfile.copy(name = "restaurant-lite"))

  test("table1 computes stats for both KBs") {
    val r = Tables.table1(bundle)
    assert(r.stats1.entities === TestKBs.tinyProfile.n1)
    assert(r.stats2.entities === TestKBs.tinyProfile.n2)
    assert(r.matches === TestKBs.tinyProfile.nMatches)
  }

  test("table1 keeps every statistic of the tiny bundle") {
    // captured before the statistics read the prepared pair
    assert(Tables.table1(bundle) === Tables.Table1Result(
      KBStats(entities = 80, triples = 1057, avgTokens = 21.125, attributes = 8,
        relations = 2, types = 3, vocabularies = 2),
      KBStats(entities = 200, triples = 2636, avgTokens = 21.15, attributes = 8,
        relations = 2, types = 3, vocabularies = 2),
      matches = 40))
  }

  test("table1 and table3 stay within their Spark job budgets") {
    // 26 and 566 jobs when each KB's statistics and each Table-3 system
    // prepared the pair on their own; 25 and 511 before Table 1 counted
    // each KB in one pass and the edges carried their KB
    val (_, jobs1) = JobCounter(spark.sparkContext)(Tables.table1(bundle))
    val (_, jobs3) = JobCounter(spark.sparkContext)(Tables.table3(spark, bundle))
    info(s"Spark jobs: table1 $jobs1, table3 $jobs3")
    assert(jobs1 <= 21, s"table1: $jobs1 Spark jobs")
    assert(jobs3 <= 504, s"table3: $jobs3 Spark jobs")
  }

  test("table1 and table3 release every frame they cache") {
    // by id: the context cleaner may drop earlier suites' RDDs meanwhile;
    // local checkpoints (the MinoanER graph's edges and matches) are data,
    // not caches, and are dropped with the frames that hold them
    def cached = spark.sparkContext.getPersistentRDDs.filterNot(_._2.isCheckpointed).keySet
    val before = cached
    Tables.table1(bundle)
    Tables.table3(spark, bundle)
    assert((cached -- before).isEmpty)
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
    val p = PreparedPair(bundle.kb1, bundle.kb2, MinoanERConfig())
    val s = Tables.runSystem(spark, bundle, p, "MinoanER")
    p.unpersist()
    assert(s.f1 > 0.8, s.pct)
  }

  test("runSystem keeps every system's Table-3 scores") {
    // table3 runs every system of the restaurant analogue over one pair
    assert(Tables.table3(spark, bundle) === Seq(
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

  test("rendered Tables 1-4 are pure ASCII") {
    val scores = Scores(1, 1, 1, 1, 1, 1)
    for (profile <- DatasetProfile.all) {
      val b = bundle.copy(profile = profile)
      val stats = KBStats(1, 1, 1.0, 1, 1, 1, 1)
      val out = Seq(
        Tables.renderTable1(b, Tables.Table1Result(stats, stats, 1)),
        Tables.renderTable2(b, BlockStats(1, 1, 1, 1, 1.0, 1.0, 1.0, 1.0, 1, 1)),
        Tables.renderScoresTable("Table 3", b, PaperNumbers.table3,
          Tables.systemsFor(profile.name).map(_ -> scores)),
        Tables.renderScoresTable("Table 4", b, PaperNumbers.table4,
          Tables.table4Variants.map(_._1 -> scores))).mkString
      assert(out.forall(_ < 128), out.filter(_ >= 128).distinct)
    }
  }

  test("renderScoresTable shows dashes for unreported paper cells") {
    val rows = Seq("LINDA" -> Scores(1, 1, 1, 1, 1, 1))
    val out = Tables.renderScoresTable("Table 3",
      bundle.copy(profile = bundle.profile.copy(name = "yago-imdb-lite")),
      PaperNumbers.table3, rows)
    assert(out.contains("-"))
  }
}
