package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.graph.{BlockingGraph, DisjunctiveBlockingGraph}

/** The four schema-agnostic matching rules of Algorithm 2.
  *
  * Every rule is a pure DataFrame transform over the pruned disjunctive
  * blocking graph. Matches are (e1, e2) pairs oriented KB1-first; already
  * matched entities are excluded via broadcast anti-joins (the broadcast
  * match sets of paper §4.1).
  */
object MatchingRules {

  /** Single-column frame of all entities appearing in `matches`, with
    * repeats: the rules read it only through anti-joins.
    */
  def matchedEntities(matches: DataFrame): DataFrame =
    matches.select(col("e1") as "entity")
      .union(matches.select(col("e2") as "entity"))

  private def exclude(df: DataFrame, onCol: String, matched: DataFrame): DataFrame =
    df.join(broadcast(matched.select(col("entity") as onCol)), Seq(onCol), "left_anti")

  /** R1 — Name Matching Rule: match every α = 1 edge (1×1 name blocks).
    * The α edges are already distinct.
    */
  def r1(g: DisjunctiveBlockingGraph): DataFrame =
    g.alphaEdges.select("e1", "e2")

  /** R2 — Value Matching Rule: for every unmatched entity of the smaller
    * KB, take its top-β candidate; match if β ≥ 1 and the candidate is
    * unmatched.
    *
    * @param smallerSide entities of the smaller KB, column `entity`
    * @param kb1Entities entities of KB1 (for orienting output pairs)
    */
  def r2(
      g: DisjunctiveBlockingGraph,
      smallerSide: DataFrame,
      kb1Entities: DataFrame,
      matched: DataFrame): DataFrame = {
    val cand0 = g.valueEdges
      .join(smallerSide.select(col("entity") as "src"), "src")
    val cand = exclude(exclude(cand0, "src", matched), "dst", matched)
    val w = Window.partitionBy("src").orderBy(col("beta").desc, col("dst"))
    val top = cand.withColumn("rn", row_number().over(w))
      .filter(col("rn") === 1 && col("beta") >= 1.0)
      .select("src", "dst")
    BlockingGraph.orient(top, kb1Entities)
  }

  /** R3 — Rank Aggregation Matching Rule: θ-weighted fusion of the
    * normalized ranks of each node's β and γ candidate lists; match the
    * top-scoring candidate. Runs over unmatched nodes of both KBs, so two
    * entities that choose each other give one pair twice; the output is
    * distinct.
    */
  def r3(
      g: DisjunctiveBlockingGraph,
      theta: Double,
      kb1Entities: DataFrame,
      matched: DataFrame,
      useNeighbors: Boolean = true): DataFrame = {

    def rankScores(edges: DataFrame, weightCol: String, factor: Double): DataFrame = {
      val filtered = exclude(exclude(edges, "src", matched), "dst", matched)
      val w = Window.partitionBy("src").orderBy(col(weightCol).desc, col("dst"))
      val sz = Window.partitionBy("src")
      filtered
        .withColumn("rn", row_number().over(w))
        .withColumn("listSize", count(lit(1)).over(sz))
        .select(col("src"), col("dst"),
          (lit(factor) * (col("listSize") - col("rn") + 1) / col("listSize")) as "score")
    }

    val valScores = rankScores(g.valueEdges, "beta", theta)
    val scores =
      if (useNeighbors)
        valScores.union(rankScores(g.neighborEdges, "gamma", 1.0 - theta))
      else valScores

    val agg = scores.groupBy("src", "dst").agg(sum("score") as "agg")
    val w = Window.partitionBy("src").orderBy(col("agg").desc, col("dst"))
    val top = agg.withColumn("rn", row_number().over(w))
      .filter(col("rn") === 1)
      .select("src", "dst")
    BlockingGraph.orient(top, kb1Entities).distinct()
  }

  /** R4 — Reciprocity Matching Rule: keep (e1, e2) only if both directed
    * edges e1→e2 and e2→e1 are present in the pruned graph.
    */
  def r4(g: DisjunctiveBlockingGraph, matches: DataFrame): DataFrame = {
    val dir = g.directedEdges
    matches
      .join(dir.select(col("src") as "e1", col("dst") as "e2"), Seq("e1", "e2"), "left_semi")
      .join(dir.select(col("dst") as "e1", col("src") as "e2"), Seq("e1", "e2"), "left_semi")
  }
}
