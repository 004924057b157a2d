package repro.blocking

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestKBs}
import repro.kb.{KBModel, Tokenizer}

class TokenBlockingSpec extends SparkSpec {

  private def et(kb: org.apache.spark.sql.DataFrame) = Tokenizer.entityTokens(kb)

  test("sharedTokenBlocks keeps only tokens present in both KBs") {
    val blocks = TokenBlocking.sharedTokenBlocks(
      et(TestKBs.kb1(spark)), et(TestKBs.kb2(spark)))
    val tokens = blocks.select("token").collect().map(_.getString(0)).toSet
    assert(tokens.contains("fat"))
    assert(tokens.contains("bray"))
    assert(!tokens.contains("michelin")) // KB1-only
    assert(!tokens.contains("windsor"))  // KB2-only
  }

  test("block comparisons equal ef1*ef2") {
    val blocks = TokenBlocking.sharedTokenBlocks(
      et(TestKBs.kb1(spark)), et(TestKBs.kb2(spark)))
    val bad = blocks.filter(col("comparisons") =!= col("ef1") * col("ef2")).count()
    assert(bad === 0)
  }

  test("figure-1: bray block has ef1=2, ef2=1") {
    val blocks = TokenBlocking.sharedTokenBlocks(
      et(TestKBs.kb1(spark)), et(TestKBs.kb2(spark)))
    val r = blocks.filter("token = 'bray'").collect().head
    assert(r.getAs[Long]("ef1") === 2) // Restaurant1 comment + Bray
    assert(r.getAs[Long]("ef2") === 1) // Berkshire abstract
  }

  test("purgeMaxComparisons keeps everything for uniform block sizes") {
    val uniform = spark.range(10).selectExpr(
      "cast(id as string) as token", "2L as ef1", "3L as ef2", "6L as comparisons")
    assert(TokenBlocking.purgeMaxComparisons(uniform) >= 6L)
    val (kept, stats) = TokenBlocking.purgedBlocks(uniform)
    assert(kept.count() === 10)
    assert(stats.keptBlocks === 10)
    assert(stats.purgedBlocks === 0)
  }

  test("purgeMaxComparisons cuts a dominant stop-word block") {
    import spark.implicits._
    // 50 small blocks of 1 comparison, one huge block of 100k comparisons
    val rows = (1 to 50).map(i => (s"t$i", 1L, 1L, 1L)) :+ (("stop", 200L, 500L, 100000L))
    val blocks = rows.toDF("token", "ef1", "ef2", "comparisons")
    val thr = TokenBlocking.purgeMaxComparisons(blocks)
    assert(thr < 100000L)
  }

  test("purgedBlocks reports purged/kept counts consistently") {
    import spark.implicits._
    val rows = (1 to 50).map(i => (s"t$i", 1L, 1L, 1L)) :+ (("stop", 200L, 500L, 100000L))
    val (kept, stats) = TokenBlocking.purgedBlocks(rows.toDF("token", "ef1", "ef2", "comparisons"))
    assert(stats.keptBlocks + stats.purgedBlocks === 51)
    assert(kept.count() === stats.keptBlocks)
    assert(stats.keptBlocks === 50)
    assert(stats.purgedBlocks === 1)
  }

  test("purging never removes minimal blocks") {
    import spark.implicits._
    val rows = (1 to 30).map(i => (s"t$i", 1L, 1L, 1L)) ++
      Seq(("mid", 5L, 5L, 25L), ("big", 100L, 100L, 10000L))
    val (kept, _) = TokenBlocking.purgedBlocks(rows.toDF("token", "ef1", "ef2", "comparisons"))
    assert(kept.filter("comparisons = 1").count() === 30)
  }

  test("empty block frame purges to empty") {
    val empty = spark.range(0).selectExpr(
      "cast(id as string) as token", "id as ef1", "id as ef2", "id as comparisons")
    val (kept, stats) = TokenBlocking.purgedBlocks(empty)
    assert(kept.count() === 0)
    assert(stats.maxComparisons === 0)
  }

  test("purgedSharedBlocks end-to-end on figure-1 keeps all small blocks") {
    val (kept, stats) = TokenBlocking.purgedSharedBlocks(
      et(TestKBs.kb1(spark)), et(TestKBs.kb2(spark)))
    assert(kept.count() > 0)
    assert(stats.keptBlocks === kept.count())
  }

  test("generated tiny profile: token blocking comparisons well below Cartesian") {
    val g = repro.data.WebKBGen.generate(spark, TestKBs.tinyProfile)
    val (kept, _) = TokenBlocking.purgedSharedBlocks(
      et(g.kb1), et(g.kb2))
    val comps = kept.agg(sum("comparisons")).collect()(0).getLong(0)
    val cartesian = TestKBs.tinyProfile.n1.toLong * TestKBs.tinyProfile.n2
    assert(comps < cartesian)
  }
}
