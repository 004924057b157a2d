package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core.UniqueMappingClustering
import repro.kb.KBModel
import repro.blocking.PreparedPair

import scala.collection.mutable

/** Greedy collective-matching engine behind SiGMa-lite, LINDA-lite and
  * RiMOM-lite (paper §5, “Entity Matching”).
  *
  * All three published systems share the same skeleton: start from seed
  * matches, keep a priority queue of candidate pairs scored by
  * `θ·valueSim + (1−θ)·graphSim`, repeatedly accept the best pair whose
  * entities are both unmatched (Unique Mapping Clustering), and propagate:
  * every acceptance raises the graph score of neighbor pairs connected via
  * *compatible* relations. They differ in where relation compatibility
  * comes from and in their acceptance thresholds — captured here by
  * [[IterConfig]], one preset per system ([[sigma]], [[linda]], [[rimom]]).
  *
  * The engine has two halves. [[prepare]] is the Spark half: value scores
  * and candidate generation (token blocking + normalized TF-IDF
  * similarity), name seeds and both KBs' adjacency, collected to the driver
  * once per KB pair. [[run]] is the greedy loop: inherently sequential, it
  * runs on the driver over those [[Inputs]], as in the original
  * (non-parallel) systems, and starts no Spark job.
  */
object IterativeMatcher {

  /** Relation-compatibility oracle: weight in [0, 1] per relation pair. */
  type RelCompat = (String, String) => Double

  /** 1 for a pair of the given relation alignment, 0 otherwise. */
  def alignedCompat(relAlignment: Map[String, String]): RelCompat = {
    val aligned = relAlignment.toSet
    (p1, p2) => if (aligned((p1, p2))) 1.0 else 0.0
  }

  final case class IterConfig(
      valueWeight: Double,       // θ
      threshold: Double,         // stop when best score drops below this
      relCompat: RelCompat,
      /** RiMOM-IM heuristic: if all but one neighbor pair of a matched pair
        * (via compatible relations) are matched, match the remaining pair.
        */
      siblingCompletion: Boolean = false)

  /** SiGMa-lite (Lacoste-Julien et al., KDD 2013): greedy collective
    * matching seeded by identical entity names, propagating over
    * *pre-aligned* relations. The true relation alignment is part of its
    * input — modeling the domain-expert alignment the original assumes
    * (paper §5: “linked with pre-aligned relations”); MinoanER needs no
    * such input.
    */
  def sigma(relAlignment: Map[String, String]): IterConfig =
    IterConfig(valueWeight = 0.6, threshold = 0.32, alignedCompat(relAlignment))

  /** LINDA-lite (Böhm et al., CIKM 2012): like SiGMa, but fully automated —
    * relations are considered compatible when their *names* are similar
    * (edit similarity of the names without their vocabulary prefix at
    * least 0.75), a requirement that rarely holds under the extreme schema
    * heterogeneity of Web data (paper §5). Its published Restaurant
    * numbers show high precision / low recall, modeled by the conservative
    * acceptance threshold.
    */
  val linda: IterConfig = {
    def stripVocab(p: String): String = p.dropWhile(_ != ':').drop(1) match {
      case "" => p
      case s => s
    }
    IterConfig(valueWeight = 0.7, threshold = 0.5, (p1, p2) => {
      val s = editSimilarity(stripVocab(p1), stripVocab(p2))
      if (s >= 0.75) s else 0.0
    })
  }

  /** RiMOM-lite (Shao et al., JCST 2016): iterative instance matching over
    * aligned relations (attribute alignment is part of its required input —
    * paper §5: “this method requires attribute alignment”), with the
    * RiMOM-IM completion heuristic: when all but one pair of neighbors via
    * an aligned relation pair are matched, the remaining pair is matched
    * too.
    */
  def rimom(relAlignment: Map[String, String]): IterConfig =
    IterConfig(valueWeight = 0.6, threshold = 0.42, alignedCompat(relAlignment),
      siblingCompletion = true)

  private val CapPerEntity = 30

  /** Normalized edit similarity of relation names (LINDA-style compat). */
  def editSimilarity(a: String, b: String): Double = {
    val la = a.length; val lb = b.length
    if (la == 0 && lb == 0) return 1.0
    val d = Array.tabulate(la + 1)(i => Array.tabulate(lb + 1)(j => 0))
    for (i <- 0 to la) d(i)(0) = i
    for (j <- 0 to lb) d(0)(j) = j
    for (i <- 1 to la; j <- 1 to lb) {
      val cost = if (a(i - 1) == b(j - 1)) 0 else 1
      d(i)(j) = math.min(math.min(d(i - 1)(j) + 1, d(i)(j - 1) + 1), d(i - 1)(j - 1) + cost)
    }
    1.0 - d(la)(lb).toDouble / math.max(la, lb)
  }

  /** Candidate value scores: normalized SiGMa-style TF-IDF similarity over
    * unigram tokens, restricted to purged token-block pairs.
    * Output: (e1, e2, score ∈ [0, 1]).
    */
  def valueScores(p: PreparedPair): DataFrame =
    BSL.pairSimilarities(BSL.ngrams(p.kb1, 1), BSL.ngrams(p.kb2, 1),
      p.betaPairs.select("e1", "e2"))
      .select(col("e1"), col("e2"), col("sigma") as "score")
      .filter(col("score") > 0)

  /** Seed pairs: 1×1 identical-name blocks (SiGMa starts from identical
    * entity names).
    */
  def nameSeeds(p: PreparedPair): DataFrame = p.alphaEdges

  /** Entity → its (pred, neighbor) relation edges. */
  type Adjacency = Map[Long, Seq[(String, Long)]]

  /** What [[run]] reads of a KB pair, on the driver: the value candidates
    * (e1, e2, score) capped per entity, the name seeds (e1, e2), and each
    * KB's adjacency. Every preset reads the same inputs.
    */
  final case class Inputs(values: Seq[(Long, Long, Double)], seeds: Seq[(Long, Long)],
                          adj1: Adjacency, adj2: Adjacency)

  /** Neighbor adjacency collected to the driver. */
  private def adjacency(kb: DataFrame): Adjacency =
    KBModel.relationTriples(kb).select("subj", "pred", "objId").distinct()
      .collect()
      .map(r => (r.getLong(0), r.getString(1), r.getLong(2)))
      .groupBy(_._1)
      .map { case (k2, v) => k2 -> v.map(t => (t._2, t._3)).toSeq }

  /** Collect the engine's inputs of a prepared pair (the Spark half). */
  def prepare(p: PreparedPair): Inputs =
    Inputs(
      UniqueMappingClustering.collectCandidates(valueScores(p), Seq("score"), CapPerEntity)
        .map { case (a, b, s) => (a, b, s(0)) },
      nameSeeds(p).collect().map(r => (r.getLong(0), r.getLong(1))).toSeq,
      adjacency(p.kb1), adjacency(p.kb2))

  /** Run the greedy collective matcher on the driver; returns matches (e1, e2)
    * in acceptance order.
    */
  def run(in: Inputs, cfg: IterConfig): Seq[(Long, Long)] = {
    val Inputs(values, seeds, adj1, adj2) = in
    // reverse adjacency: neighbor → (pred, source)
    def reverse(a: Adjacency): Adjacency =
      a.toSeq.flatMap { case (src, es) => es.map { case (p, n) => (n, (p, src)) } }
        .groupBy(_._1).map { case (k2, v) => k2 -> v.map(_._2) }
    val rev1 = reverse(adj1)
    val rev2 = reverse(adj2)

    val valueScore: Map[(Long, Long), Double] =
      values.map { case (a, b, s) => (a, b) -> s }.toMap

    val matched1 = mutable.Map.empty[Long, Long] // e1 -> e2
    val matched2 = mutable.Map.empty[Long, Long]
    val accepted = mutable.ArrayBuffer.empty[(Long, Long)]

    def graphScore(a: Long, b: Long): Double = {
      val na = adj1.getOrElse(a, Seq.empty)
      val nb = adj2.getOrElse(b, Seq.empty)
      if (na.isEmpty || nb.isEmpty) return 0.0
      var s = 0.0
      for ((p1, x) <- na; (p2, y) <- nb
           if matched1.get(x).contains(y)) s += cfg.relCompat(p1, p2)
      s / math.max(na.size, nb.size)
    }

    def score(a: Long, b: Long): Double =
      cfg.valueWeight * valueScore.getOrElse((a, b), 0.0) +
        (1 - cfg.valueWeight) * graphScore(a, b)

    // priority queue with lazy re-validation: entries carry the score at
    // insertion time; on pop, the score is recomputed and the entry
    // reinserted if it decayed (standard lazy-update trick — scores only
    // grow as matches accumulate, so a popped entry with a stale LOWER
    // score is reinserted with its fresh score).
    final case class Entry(score: Double, a: Long, b: Long)
    implicit val ord: Ordering[Entry] =
      Ordering.by((e: Entry) => (e.score, -e.a, -e.b))
    val pq = mutable.PriorityQueue.empty[Entry]

    def acceptPair(a: Long, b: Long): Unit = {
      matched1(a) = b; matched2(b) = a; accepted += ((a, b))
      // propagate to neighbor pairs via compatible relations
      val candidates = mutable.ArrayBuffer.empty[(Long, Long)]
      for ((p1, x) <- adj1.getOrElse(a, Seq.empty)
           if !matched1.contains(x);
           (p2, y) <- adj2.getOrElse(b, Seq.empty)
           if !matched2.contains(y) && cfg.relCompat(p1, p2) > 0)
        candidates += ((x, y))
      for ((p1, x) <- rev1.getOrElse(a, Seq.empty)
           if !matched1.contains(x);
           (p2, y) <- rev2.getOrElse(b, Seq.empty)
           if !matched2.contains(y) && cfg.relCompat(p1, p2) > 0)
        candidates += ((x, y))
      for ((x, y) <- candidates.distinct) {
        val s = score(x, y)
        if (s >= cfg.threshold) pq.enqueue(Entry(s, x, y))
      }
      // RiMOM-IM sibling completion: single unmatched neighbor pair left
      if (cfg.siblingCompletion) {
        for ((p1, _) <- adj1.getOrElse(a, Seq.empty)) {
          val p2s = adj2.getOrElse(b, Seq.empty).map(_._1).distinct
            .filter(p2 => cfg.relCompat(p1, p2) > 0)
          for (p2 <- p2s) {
            val left = adj1.getOrElse(a, Seq.empty).collect { case (`p1`, x) if !matched1.contains(x) => x }
            val right = adj2.getOrElse(b, Seq.empty).collect { case (`p2`, y) if !matched2.contains(y) => y }
            if (left.size == 1 && right.size == 1)
              pq.enqueue(Entry(1.0, left.head, right.head))
          }
        }
      }
    }

    for ((a, b) <- seeds if !matched1.contains(a) && !matched2.contains(b))
      acceptPair(a, b)
    for ((a, b, _) <- values) {
      val s = score(a, b)
      if (s >= cfg.threshold) pq.enqueue(Entry(s, a, b))
    }

    while (pq.nonEmpty) {
      val e = pq.dequeue()
      if (!matched1.contains(e.a) && !matched2.contains(e.b)) {
        val fresh = score(e.a, e.b)
        if (fresh >= cfg.threshold) {
          if (fresh >= e.score - 1e-12) acceptPair(e.a, e.b)
          else pq.enqueue(Entry(fresh, e.a, e.b))
        }
      }
    }

    accepted.toSeq
  }
}
