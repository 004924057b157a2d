package repro.core

import org.apache.spark.JobCounter

import repro.SparkSpec

class EvaluationSpec extends SparkSpec {

  import spark.implicits._

  private def df(rows: (Long, Long)*) = rows.toSeq.toDF("e1", "e2")
  private def truth(rows: (Long, Long)*) = rows.toSeq.toDF("id1", "id2")

  test("perfect match set scores 1/1/1") {
    val s = Evaluation.scorePairs(Seq(1L -> 101L), Set(1L -> 101L))
    assert(s.precision === 1.0 && s.recall === 1.0 && s.f1 === 1.0)
  }

  test("precision counts false positives") {
    val s = Evaluation.scorePairs(Seq(1L -> 101L, 2L -> 102L), Set(1L -> 101L))
    assert(s.precision === 0.5)
    assert(s.recall === 1.0)
  }

  test("recall counts missed matches") {
    val s = Evaluation.scorePairs(Seq(1L -> 101L), Set(1L -> 101L, 2L -> 102L))
    assert(s.recall === 0.5)
  }

  test("empty match set scores zero without dividing by zero") {
    val s = Evaluation.scorePairs(Seq.empty, Set(1L -> 101L))
    assert(s.precision === 0.0 && s.recall === 0.0 && s.f1 === 0.0)
  }

  test("duplicate matches are counted once") {
    val s = Evaluation.scorePairs(Seq(1L -> 101L, 1L -> 101L), Set(1L -> 101L))
    assert(s.returned === 1)
    assert(s.precision === 1.0)
  }

  test("f1 is the harmonic mean") {
    val s = Evaluation.scorePairs(Seq(1L -> 101L, 2L -> 102L), Set(1L -> 101L, 3L -> 103L))
    // p = 0.5, r = 0.5 -> f1 = 0.5
    assert(math.abs(s.f1 - 0.5) < 1e-12)
  }

  test("scoreRestricted ignores pairs touching no ground-truth entity") {
    val s = Evaluation.scoreRestricted(
      df(1L -> 101L, 50L -> 150L), truth(1L -> 101L))
    assert(s.returned === 1)
    assert(s.precision === 1.0)
  }

  test("scoreRestricted counts wrong pairings of ground-truth entities as FPs") {
    // 1 and 102 are gt entities wrongly paired with each other: FP.
    // 1 -> 199 (non-gt partner) and 55 -> 102 (non-gt source) are ignored.
    val s = Evaluation.scoreRestricted(
      df(1L -> 102L, 1L -> 199L, 55L -> 102L), truth(1L -> 101L, 2L -> 102L))
    assert(s.returned === 1)
    assert(s.truePositives === 0)
  }

  test("scoreRestricted does not double-count or scramble pair columns") {
    // regression: a using-columns semi-join reorders columns; the counted
    // frame must keep (e1, e2) intact
    val s = Evaluation.scoreRestricted(
      df(1L -> 101L, 2L -> 102L), truth(1L -> 101L, 2L -> 102L))
    assert(s.returned === 2)
    assert(s.precision === 1.0 && s.recall === 1.0)
  }

  test("scorePairsRestricted agrees with the DataFrame variant") {
    val matches = Seq((1L, 102L), (1L, 199L), (55L, 102L), (2L, 102L))
    val t = Set((1L, 101L), (2L, 102L))
    val a = Evaluation.scorePairsRestricted(matches, t)
    val b = Evaluation.scoreRestricted(df(matches: _*), truth(t.toSeq: _*))
    assert(a.returned === b.returned)
    assert(a.truePositives === b.truePositives)
  }

  test("scoreRestricted runs at most two Spark jobs") {
    // one collect of the matches, one of the truth
    val m = df(1L -> 101L, 2L -> 102L, 55L -> 102L)
    val t = truth(1L -> 101L, 2L -> 102L)
    val (s, jobs) = JobCounter(spark.sparkContext)(Evaluation.scoreRestricted(m, t))
    assert(s.truePositives === 2)
    assert(jobs <= 2, s"jobs=$jobs")
  }

  test("pct renders percent triple") {
    val s = Scores(0.5, 0.25, 1.0 / 3, 1, 2, 4)
    assert(s.pct === "50.00/25.00/33.33")
  }
}
