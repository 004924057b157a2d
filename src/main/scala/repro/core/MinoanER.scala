package repro.core

import org.apache.spark.sql.DataFrame

import repro.blocking.PreparedPair
import repro.graph.{BlockingGraph, DisjunctiveBlockingGraph}
import repro.kb.KBModel

/** The MinoanER non-iterative matching pipeline (paper §4, Algorithm 2).
  *
  * `M(e1, e2) = (R1 ∨ R2 ∨ R3) ∧ R4` over the pruned disjunctive blocking
  * graph; matches found by an earlier rule exclude their entities from the
  * later rules.
  */
object MinoanER {

  /** Rule selection for the Table-4 ablations. */
  final case class Variant(
      useR1: Boolean = true,
      useR2: Boolean = true,
      useR3: Boolean = true,
      useR4: Boolean = true,
      useNeighbors: Boolean = true)

  object Variant {
    val Full: Variant = Variant()
    val R1Only: Variant = Variant(useR2 = false, useR3 = false, useR4 = false)
    val R2Only: Variant = Variant(useR1 = false, useR3 = false, useR4 = false)
    val R3Only: Variant = Variant(useR1 = false, useR2 = false, useR4 = false)
    val NoR4: Variant = Variant(useR4 = false)
    /** Full workflow but R3 on value ranks only (all γ evidence dropped). */
    val NoNeighbors: Variant = Variant(useNeighbors = false)
  }

  /** Resolve two clean KBs end-to-end: build the graph, run the rules.
    * The caller caches `kb1` and `kb2` (each is read by several jobs). The
    * result reads only checkpointed data, so the pair's caches are released.
    */
  def resolve(kb1: DataFrame, kb2: DataFrame, cfg: MinoanERConfig = MinoanERConfig()): DataFrame = {
    val p = PreparedPair(kb1, kb2, cfg)
    val m = matchGraph(BlockingGraph.build(p), p)
    p.unpersist()
    m
  }

  /** Run Algorithm 2 over a graph of `p` (shared across ablations). R1's
    * matches are the checkpointed α edges; R2 and R3 each add theirs with
    * truncated lineage — the match set is tiny, its plan deep — mirroring
    * the paper's broadcast of intermediate matches (§4.1). Each rule
    * returns distinct pairs and excludes the entities matched before it,
    * so the unions are disjoint and the result is distinct.
    */
  def matchGraph(
      g: DisjunctiveBlockingGraph,
      p: PreparedPair,
      variant: Variant = Variant.Full): DataFrame = {
    val e1 = KBModel.entities(p.kb1)
    val smaller =
      if (p.summary1.entities <= p.summary2.entities) e1 else KBModel.entities(p.kb2)

    val r1 = MatchingRules.r1(g)
    var m = if (variant.useR1) r1 else r1.limit(0) // empty, with R1's schema
    if (variant.useR2)
      m = m.union(MatchingRules.r2(g, smaller, e1, MatchingRules.matchedEntities(m)))
        .localCheckpoint(true)
    if (variant.useR3)
      m = m.union(MatchingRules.r3(g, p.cfg.theta, e1, MatchingRules.matchedEntities(m),
        variant.useNeighbors)).localCheckpoint(true)
    if (variant.useR4) m = MatchingRules.r4(g, m)
    m.select("e1", "e2")
  }
}
