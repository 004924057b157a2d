package repro.core

import repro.SparkSpec

class UniqueMappingClusteringSpec extends SparkSpec {

  import UniqueMappingClustering.cluster

  test("accepts the best pair first") {
    val m = cluster(Seq((1L, 101L, 0.9), (1L, 102L, 0.5)), 0.0)
    assert(m === Seq((1L, 101L)))
  }

  test("an entity is matched at most once on either side") {
    val m = cluster(Seq((1L, 101L, 0.9), (2L, 101L, 0.8), (2L, 102L, 0.7)), 0.0)
    assert(m === Seq((1L, 101L), (2L, 102L)))
  }

  test("threshold cuts low-similarity pairs") {
    val m = cluster(Seq((1L, 101L, 0.9), (2L, 102L, 0.3)), 0.5)
    assert(m === Seq((1L, 101L)))
  }

  test("ties break deterministically by ids") {
    val m1 = cluster(Seq((2L, 102L, 0.5), (1L, 101L, 0.5)), 0.0)
    val m2 = cluster(Seq((1L, 101L, 0.5), (2L, 102L, 0.5)), 0.0)
    assert(m1 === m2)
    assert(m1.head === ((1L, 101L)))
  }

  test("empty input yields empty output") {
    assert(cluster(Seq.empty, 0.0) === Seq.empty)
  }

  test("all pairs below threshold yields empty output") {
    assert(cluster(Seq((1L, 101L, 0.2)), 0.5) === Seq.empty)
  }

  test("result is a valid partial 1-1 mapping for random inputs") {
    val rnd = new scala.util.Random(7)
    val pairs = Seq.fill(500)((rnd.nextInt(50).toLong, 100L + rnd.nextInt(50), rnd.nextDouble()))
    val m = cluster(pairs, 0.1)
    assert(m.map(_._1).distinct.size === m.size)
    assert(m.map(_._2).distinct.size === m.size)
  }

  test("greedy order: accepted pairs never conflict with a higher-scored accepted pair") {
    val rnd = new scala.util.Random(13)
    val pairs = Seq.fill(300)((rnd.nextInt(30).toLong, 100L + rnd.nextInt(30), rnd.nextDouble()))
    val m = cluster(pairs, 0.0).toSet
    // every truth of greedy UMC: for each input pair not accepted with score
    // above threshold, at least one endpoint is used by an accepted pair of
    // >= score (up to tie order)
    val byPair = pairs.groupBy(p => (p._1, p._2)).map { case (k, v) => k -> v.map(_._3).max }
    for (((a, b), s) <- byPair if !m.contains((a, b))) {
      val blockers = m.filter(p => p._1 == a || p._2 == b)
      assert(blockers.nonEmpty)
      val maxBlocker = blockers.map(p => byPair((p._1, p._2))).max
      assert(maxBlocker >= s - 1e-12)
    }
  }

  test("collectCandidates caps per-entity candidates") {
    import spark.implicits._
    // entity 1 and entity 200 have 60 candidates each; their shared row
    // ranks first by column a but last by max(a, b) on both sides, and
    // every other row is its other entity's only candidate
    val special = (1L, 200L, 0.5, 0.0)
    val others = (1 to 59).flatMap(i => Seq(
      (1L, 100L + i, i / 200.0, 0.6 + i / 200.0),
      (1L + i, 200L, 0.01, 0.6 + i / 200.0)))
    val scored = (special +: others).toDF("e1", "e2", "a", "b")
    def kept(cols: String*) = UniqueMappingClustering.collectCandidates(scored, cols, 50)
      .map(r => (r._1, r._2)).toSet
    assert(kept("a", "b") === others.map(r => (r._1, r._2)).toSet)
    assert(kept("a").contains((1L, 200L)))
  }

  test("collectCandidates drops non-positive scores") {
    import spark.implicits._
    val scored = Seq((1L, 101L, 0.0), (2L, 102L, 0.5)).toDF("e1", "e2", "score")
    val c = UniqueMappingClustering.collectCandidates(scored, Seq("score"), 50)
    assert(c.map(p => (p._1, p._2)) === Seq((2L, 102L)))
  }
}
