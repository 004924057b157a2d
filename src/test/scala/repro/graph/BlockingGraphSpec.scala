package repro.graph

import org.scalacheck.{Gen, Prop, Test => Check}

import repro.{SparkSpec, TestKBs}
import repro.blocking.PreparedPair
import repro.core.MinoanERConfig
import repro.kb.KBModel

class BlockingGraphSpec extends SparkSpec {

  import spark.implicits._

  private lazy val g = BlockingGraph.build(
    PreparedPair(TestKBs.kb1(spark), TestKBs.kb2(spark), MinoanERConfig()))

  test("topKDirected keeps at most K out-edges per node in each direction") {
    val pairs = Seq(
      (1L, 101L, 3.0), (1L, 102L, 2.0), (1L, 103L, 1.0),
      (2L, 101L, 5.0)).toDF("e1", "e2", "w")
    val pruned = BlockingGraph.topKDirected(pairs, "w", 2)
    val bySrc = pruned.collect().groupBy(_.getLong(0))
    assert(bySrc(1L).length === 2)            // kept top-2 of 3
    assert(bySrc(101L).length === 2)          // reverse direction: 3.0 and 5.0
    assert(bySrc(102L).length === 1)
  }

  test("topKDirected ranks by weight descending") {
    val pairs = Seq((1L, 101L, 1.0), (1L, 102L, 9.0)).toDF("e1", "e2", "w")
    val top = BlockingGraph.topKDirected(pairs, "w", 1)
      .filter("src = 1").collect().head
    assert(top.getLong(1) === 102L)
  }

  test("topKDirected emits both directions for every undirected edge") {
    val pairs = Seq((1L, 101L, 1.0)).toDF("e1", "e2", "w")
    val pruned = BlockingGraph.topKDirected(pairs, "w", 5).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(pruned === Set((1L, 101L), (101L, 1L)))
  }

  test("topKDirected evaluates its input once") {
    val rows = Seq((1L, 101L, 3.0), (1L, 102L, 2.0), (2L, 101L, 5.0))
    val (pairs, evaluated) =
      TestKBs.counted(spark.sparkContext.parallelize(rows, 2).toDF("e1", "e2", "w"))
    assert(BlockingGraph.topKDirected(pairs, "w", 1).count() === 4)
    assert(evaluated.value === 3L)
  }

  /** Directed top-K on the driver: both directions of every pair, each
    * flagged with its source's side, the first K per src by (w desc, dst)
    * kept.
    */
  private def topKReference(pairs: Seq[(Long, Long, Double)], k: Int) =
    pairs.flatMap { case (a, b, w) => Seq((a, b, w, true), (b, a, w, false)) }
      .groupBy(_._1).values
      .flatMap(_.sortBy { case (_, dst, w, _) => (-w, dst) }.take(k))
      .toSet

  test("topKDirected equals the driver-side directed top-K, ties included") {
    // few distinct weights, so most nodes have tied out-edges
    val pairsGen = Gen.listOf(Gen.zip(Gen.choose(1L, 6L), Gen.choose(101L, 106L),
      Gen.oneOf(1.0, 2.0, 3.0))).map(_.distinctBy(p => (p._1, p._2)))
    val prop = Prop.forAll(pairsGen, Gen.choose(1, 4)) { (pairs, k) =>
      val got = BlockingGraph.topKDirected(pairs.toDF("e1", "e2", "w"), "w", k).collect()
        .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2), r.getBoolean(3))).toSet
      got == topKReference(pairs, k)
    }
    val result = Check.check(Check.Parameters.default.withMinSuccessfulTests(30), prop)
    assert(result.passed, result.status)
  }

  test("figure-1 graph has the chef alpha edge") {
    val a = g.alphaEdges.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(a === Set((TestKBs.JohnLakeA, TestKBs.JonnyLake)))
  }

  test("figure-1 graph has beta edges in both directions") {
    val v = g.valueEdges.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(v.contains((TestKBs.Bray, TestKBs.Berkshire)))
    assert(v.contains((TestKBs.Berkshire, TestKBs.Bray)))
  }

  test("figure-1 graph connects the restaurants with gamma evidence") {
    val n = g.neighborEdges.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(n.contains((TestKBs.Restaurant1, TestKBs.Restaurant2)))
  }

  test("directedEdges contains alpha edges in both directions") {
    val d = g.directedEdges.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(d.contains((TestKBs.JohnLakeA, TestKBs.JonnyLake)))
    assert(d.contains((TestKBs.JonnyLake, TestKBs.JohnLakeA)))
  }

  test("retainedBetaPairs reorients edges KB1-first and dedupes") {
    val edges = Seq(
      (TestKBs.Bray, TestKBs.Berkshire, 2.0, true),
      (TestKBs.Berkshire, TestKBs.Bray, 2.0, false)).toDF("src", "dst", "beta", "fromKB1")
    val r = BlockingGraph.retainedBetaPairs(edges).collect()
    assert(r.length === 1)
    assert((r.head.getLong(0), r.head.getLong(1)) === ((TestKBs.Bray, TestKBs.Berkshire)))
  }

  test("figure-1 value and neighbor edges flag exactly the sources in KB1") {
    val kb1 = KBModel.entities(TestKBs.kb1(spark)).collect().map(_.getLong(0)).toSet
    for (edges <- Seq(g.valueEdges, g.neighborEdges)) {
      val rows = edges.collect()
      assert(rows.map(_.getAs[Boolean]("fromKB1")).toSet === Set(true, false))
      assert(rows.forall(r => r.getAs[Boolean]("fromKB1") === kb1(r.getLong(0))))
    }
  }

  test("pruning respects the configured K") {
    val small = BlockingGraph.build(
      PreparedPair(TestKBs.kb1(spark), TestKBs.kb2(spark), MinoanERConfig(bigK = 1)))
    val bySrc = small.valueEdges.collect().groupBy(_.getLong(0))
    assert(bySrc.values.forall(_.length <= 1))
  }
}
