package repro.blocking

import repro.{SparkSpec, TestKBs}
import repro.kb.NameDiscovery

class NameBlockingSpec extends SparkSpec {

  import spark.implicits._

  private def names(pairs: (Long, String)*) = pairs.toSeq.toDF("entity", "name")

  test("sharedNameBlocks keeps only names present in both KBs") {
    val b = NameBlocking.sharedNameBlocks(
      names(1L -> "a", 2L -> "b"), names(101L -> "b", 102L -> "c"))
    assert(b.select("name").collect().map(_.getString(0)).toSet === Set("b"))
  }

  test("block counts are per-KB entity counts") {
    val b = NameBlocking.sharedNameBlocks(
      names(1L -> "x", 2L -> "x"), names(101L -> "x"))
    val r = b.collect().head
    assert(r.getAs[Long]("cnt1") === 2)
    assert(r.getAs[Long]("cnt2") === 1)
    assert(r.getAs[Long]("comparisons") === 2)
  }

  test("alphaEdges only emits 1x1 name blocks") {
    val a = NameBlocking.alphaEdges(
      names(1L -> "u", 2L -> "shared", 3L -> "shared"),
      names(101L -> "u", 102L -> "shared"))
    val edges = a.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(edges === Set((1L, 101L)))
  }

  test("alphaEdges dedupes multi-name pairs") {
    val a = NameBlocking.alphaEdges(
      names(1L -> "n1", 1L -> "n2"), names(101L -> "n1", 101L -> "n2"))
    assert(a.count() === 1)
  }

  test("no shared names yields no alpha edges") {
    val a = NameBlocking.alphaEdges(names(1L -> "a"), names(101L -> "b"))
    assert(a.count() === 0)
  }

  test("figure-1: the unique shared name jlake produces the chef alpha edge") {
    val n1 = NameDiscovery.names(TestKBs.kb1(spark), 2)
    val n2 = NameDiscovery.names(TestKBs.kb2(spark), 2)
    val a = NameBlocking.alphaEdges(n1, n2).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(a.contains((TestKBs.JohnLakeA, TestKBs.JonnyLake)))
  }

  test("alphaEdges reads each names frame once") {
    def frame(rows: (Long, String)*) =
      spark.sparkContext.parallelize(rows, 2).toDF("entity", "name")
    val (n1, read1) = TestKBs.counted(frame(1L -> "u", 2L -> "s", 3L -> "s"))
    val (n2, read2) = TestKBs.counted(frame(101L -> "u", 102L -> "s"))
    val a = NameBlocking.alphaEdges(n1, n2).collect().map(r => (r.getLong(0), r.getLong(1)))
    assert(a.toSeq === Seq((1L, 101L)))
    assert((read1.value, read2.value) === ((3L, 2L)))
  }

  test("a name shared by two KB1 entities never forms an alpha edge") {
    val a = NameBlocking.alphaEdges(
      names(1L -> "dup", 2L -> "dup"), names(101L -> "dup"))
    assert(a.count() === 0)
  }
}
