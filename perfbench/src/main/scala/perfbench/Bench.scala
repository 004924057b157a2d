package perfbench

import java.lang.management.ManagementFactory
import java.security.MessageDigest

import org.apache.spark.sql.SparkSession

import repro.core.{Evaluation, MinoanER, MinoanERConfig, Scores}
import repro.data.{KBProfile, WebKBGen}
import repro.harness.Tables

/** The MinoanER benchmark: one workload per JVM, in local mode, with the
  * Spark settings of `repro.jobs.JobSession`.
  *
  * Set-up starts the session and generates and caches the KB pair. A closed
  * loop with one caller then runs the workload's operation one at a time
  * until `--seconds` have passed (at least once). The gated figure is the
  * first operation, the one a job submitted once pays: it includes the
  * JIT and code-generation warm-up of the pipeline's plans. Later
  * operations, if any, are reported as ungated information. Every operation
  * is checked; a failed check counts it as failed.
  *
  * With `--trace 1` the run times a cold and a warm untraced `resolve`,
  * then re-runs the pipeline stage by stage through the layers' public
  * functions (see [[TracedPipeline]]) and reports per-layer metrics.
  *
  * The last line of standard output is the JSON result; the line before it
  * carries ungated information (match-set size and digest, settings).
  */
object Bench {

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean)

  /** Outcome of checking one operation's output. */
  final case class Checked(digest: String, failures: Seq[String], info: Map[String, Any])

  /** A workload's operation: the timed part, then its untimed check.
    *
    * Each call starts from the storage state set-up left: only the input
    * KB pair is cached. Frames the program caches and never releases would
    * otherwise let a repeated operation reuse its predecessor's work.
    */
  final class Operation[R](b: Tables.Bundle, run: () => R, val check: R => Checked) {
    private var dirty = false
    /** Seconds taken, storage held on return (MB), and the check. */
    def timed(): (Double, Double, Checked) = {
      if (dirty) onlyInputsCached(b)
      dirty = true
      val t0 = System.nanoTime()
      val r = run()
      val s = (System.nanoTime() - t0) / 1e9
      (s, storageMb(b.kb1.sparkSession), check(r))
    }
  }

  private val cfg = MinoanERConfig()

  def main(argv: Array[String]): Unit = {
    val o = parse(argv.toList, Opts("", 1L, 10.0, trace = false))
    val w = Workloads.byName(o.workload)
    val profile = w.profile(o.seed)
    // set-up is counted from JVM start: class loading is part of it
    val setupT0 = System.nanoTime() - ManagementFactory.getRuntimeMXBean.getUptime * 1000000L
    val spark = repro.jobs.JobSession.build(s"perfbench-${w.name}")
    val b = Tables.bundle(spark, profile)
    val truth = Evaluation.truthSet(b.truth)
    val setupS = (System.nanoTime() - setupT0) / 1e9
    val resolve = resolveOperation(b, profile, w.f1Floor, truth)

    val (out, info) =
      if (o.trace) traced(spark, b, resolve)
      else {
        val op = if (w == Workloads.ablationBbcmusic) ablationOperation(spark, b, truth) else resolve
        untraced(spark, w, op, setupS, o.seconds)
      }
    val conf = settings(spark)
    spark.stop()
    println(Json.obj(Map("info" -> (info ++ conf + ("workload" -> w.name) + ("seed" -> o.seed)))))
    println(out)
    sys.exit(0)
  }

  /** End-to-end run: timed operations until `seconds` have passed. */
  private def untraced(
      spark: SparkSession, w: Workload, op: Operation[_],
      setupS: Double, seconds: Double): (String, Map[String, Any]) = {
    val times = Seq.newBuilder[Double]
    val failures = Seq.newBuilder[String]
    var attempted = 0
    var failed = 0
    var first: Option[(Checked, Double)] = None
    val loopT0 = System.nanoTime()
    while (attempted == 0 || (attempted < 19 && (System.nanoTime() - loopT0) / 1e9 < seconds)) {
      val (s, mb, c) = op.timed()
      if (first.isEmpty) first = Some((c, mb))
      times += s
      attempted += 1
      val fs = c.failures ++
        (if (c.digest != first.get._1.digest) Seq("result differs from the run's first operation") else Nil)
      if (fs.nonEmpty) { failed += 1; failures ++= fs }
    }
    val ts = times.result()
    val (c0, storage) = first.get
    val metric = if (w == Workloads.ablationBbcmusic) "ablation_s" else "resolve_s"
    val metrics = Map(
      "setup_s" -> (setupS, "s"),
      metric -> (ts.head, "s"),
      "storage_mb" -> (storage, "MB"))
    val info = c0.info ++ Map(
      "digest" -> c0.digest, "operation_s" -> ts,
      "failures" -> failures.result().distinct)
    (result(failed == 0, attempted, failed, metrics), info)
  }

  /** Traced run: a cold and a warm untraced `resolve`, then the staged
    * re-run; the warm one is the base of the tracing overhead.
    */
  private def traced(
      spark: SparkSession, b: Tables.Bundle,
      resolve: Operation[Array[(Long, Long)]]): (String, Map[String, Any]) = {
    val (coldS, _, cold) = resolve.timed()
    val (untracedS, _, plain) = resolve.timed()
    System.gc()
    Thread.sleep(2000) // lets the context cleaner drop what the GC freed
    val retainedMb = storageMb(spark)

    onlyInputsCached(b)
    val tr = new StageTracer(spark.sparkContext)
    val r = TracedPipeline.run(b, cfg, tr)
    tr.close()
    val tracedChecked = resolve.check(r.matches)

    val plainFailures = plain.failures ++
      (if (plain.digest != cold.digest) Seq("warm match set differs from the cold one") else Nil)
    val tracedFailures = tracedChecked.failures ++
      (if (tracedChecked.digest != cold.digest) Seq("traced match set differs from the untraced one") else Nil) ++
      (if (math.abs(r.scores.f1 - tracedChecked.info("f1_restricted").asInstanceOf[Double]) > 1e-12)
         Seq("Spark-side and driver-side restricted F1 differ") else Nil)
    val failed = Seq(cold.failures, plainFailures, tracedFailures).count(_.nonEmpty)

    val m = Map.newBuilder[String, (Double, String)]
    for (n <- tr.names) {
      val t = tr(n)
      m += s"$n.wall_s" -> (t.wallS, "s")
      m += s"$n.driver_s" -> (t.driverS, "s")
      m += s"$n.task_s" -> (t.taskS, "s")
      m += s"$n.jobs" -> (t.jobs.toDouble, "count")
      m += s"$n.rows_out" -> (t.rowsOut.toDouble, "count")
      m += s"$n.shuffle_mb" -> (t.shuffleBytes / 1e6, "MB")
    }
    val blocksIn = r.purge.keptBlocks + r.purge.purgedBlocks
    m += "blocking.purge.blocks_in" -> (blocksIn.toDouble, "count")
    m += "blocking.purge.kept_share" -> (ratio(r.purge.keptBlocks, blocksIn), "share")
    m += "blocking.purge.threshold" -> (r.purge.maxComparisons.toDouble, "comparisons")
    // top-K pruning sees every undirected pair as two directed edges
    for (s <- Seq("beta", "gamma")) {
      val in = 2 * tr(s"graph.$s").rowsOut
      m += s"graph.${s}_topk.edges_in" -> (in.toDouble, "count")
      m += s"graph.${s}_topk.kept_share" -> (ratio(tr(s"graph.${s}_topk").rowsOut, in), "share")
    }
    m += "core.r4.pairs_in" -> (r.r4In.toDouble, "count")
    m += "core.r4.kept_share" -> (ratio(r.matches.length.toLong, r.r4In), "share")
    m += "core.multi_matched" -> (multiMatched(r.matches.toSeq).toDouble, "count")
    m += "core.retained_storage_mb" -> (retainedMb, "MB")
    m += "trace.overhead_s" -> (tr.names.map(tr(_).wallS).sum - untracedS, "s")

    val info = tracedChecked.info ++ Map(
      "digest" -> cold.digest, "cold_resolve_s" -> coldS, "untraced_resolve_s" -> untracedS,
      "failures" -> (cold.failures ++ plainFailures ++ tracedFailures).distinct)
    (result(failed == 0, 3, failed, m.result()), info)
  }

  // ------------------------------------------------------------ operations

  /** `MinoanER.resolve` collected to a match set, checked against the
    * KB-pair contract and the profile's F1 floor.
    */
  def resolveOperation(
      b: Tables.Bundle, p: KBProfile, f1Floor: Double,
      truth: Set[(Long, Long)]): Operation[Array[(Long, Long)]] =
    new Operation[Array[(Long, Long)]](b,
      () => MinoanER.resolve(b.kb1, b.kb2, cfg).collect().map(r => (r.getLong(0), r.getLong(1))),
      pairs => {
        val off2 = WebKBGen.Off2
        val s = Evaluation.scorePairsRestricted(pairs.toSeq, truth)
        val failures = Seq(
          pairs.exists { case (e1, e2) =>
            e1 < 0 || e1 >= p.n1 || e2 < off2 || e2 >= off2 + p.n2 } ->
            "a pair is not (KB1 entity, KB2 entity)",
          (pairs.distinct.length != pairs.length) -> "duplicate pairs",
          (s.f1 < f1Floor) -> f"restricted F1 ${s.f1}%.4f below the floor $f1Floor",
        ).collect { case (true, msg) => msg }
        Checked(digest(pairs.sorted.map { case (a, c) => s"$a,$c" }), failures, Map(
          "match_pairs" -> pairs.length,
          "multi_matched" -> multiMatched(pairs.toSeq),
          "f1_restricted" -> s.f1))
      })

  /** `Tables.table4`: one graph build, five rule variants, each scored;
    * checked against the Table-4 shape `Table4Bench` asserts. The shape
    * needs the full pipeline's scores, computed once, after the first
    * (timed) operation.
    */
  def ablationOperation(
      spark: SparkSession, b: Tables.Bundle,
      truth: Set[(Long, Long)]): Operation[Seq[(String, Scores)]] = {
    lazy val full = Evaluation.scorePairsRestricted(
      MinoanER.resolve(b.kb1, b.kb2, cfg).collect().map(r => (r.getLong(0), r.getLong(1))).toSeq,
      truth)
    new Operation[Seq[(String, Scores)]](b,
      () => Tables.table4(spark, b, cfg),
      rows0 => {
        val rows = rows0.toMap
        val failures = Seq(
          (rows("R1").precision <= 0.85) -> "R1 precision",
          (rows("R2").precision <= 0.8) -> "R2 precision",
          (rows("R1").recall >= 1.0) -> "R1 recall",
          (rows("R3").recall <= 0.6) -> "R3 recall",
          (rows("NoR4").recall + 1e-9 < full.recall) -> "NoR4 recall below the full pipeline's",
          (full.f1 + 1e-9 < rows("NoNeighbors").f1 - 0.02) -> "neighbor evidence does not help",
        ).collect { case (true, msg) => s"Table-4 shape: $msg" }
        Checked(
          digest(rows0.map { case (n, s) => s"$n,${s.truePositives},${s.returned},${s.truthSize}" }),
          failures,
          rows0.map { case (n, s) => s"f1_$n" -> s.f1 }.toMap + ("f1_full" -> full.f1))
      })
  }

  // --------------------------------------------------------------- helpers

  /** Drop every cached frame and persisted RDD (earlier operations'
    * checkpoints included), then cache the input KB pair again.
    */
  def onlyInputsCached(b: Tables.Bundle): Unit = {
    val spark = b.kb1.sparkSession
    spark.catalog.clearCache()
    spark.sparkContext.getPersistentRDDs.values.foreach(_.unpersist(blocking = true))
    Seq(b.kb1, b.kb2, b.truth).foreach(df => df.cache().count())
  }

  /** Block-manager bytes (memory + disk) held by persisted RDDs, in MB. */
  def storageMb(spark: SparkSession): Double =
    spark.sparkContext.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum / 1e6

  /** Entities (of either KB) that appear in more than one pair. */
  def multiMatched(pairs: Seq[(Long, Long)]): Long =
    pairs.groupBy(_._1).count(_._2.size > 1).toLong +
      pairs.groupBy(_._2).count(_._2.size > 1).toLong

  private def ratio(a: Long, b: Long): Double = if (b == 0) 0.0 else a.toDouble / b

  private def digest(lines: Seq[String]): String =
    MessageDigest.getInstance("SHA-256").digest(lines.mkString("\n").getBytes("UTF-8"))
      .take(8).map("%02x".format(_)).mkString

  private def settings(spark: SparkSession): Map[String, Any] = {
    val conf = spark.sparkContext.getConf
    Map(
      "master" -> spark.sparkContext.master,
      "threads" -> spark.sparkContext.defaultParallelism,
      "shuffle_partitions" -> conf.get("spark.sql.shuffle.partitions", "?"),
      "broadcast_threshold" -> conf.get("spark.sql.autoBroadcastJoinThreshold", "?"),
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "jvm" -> System.getProperty("java.vm.version"),
      "spark" -> spark.version,
      "scala" -> scala.util.Properties.versionNumberString)
  }

  private def result(correct: Boolean, attempted: Int, failed: Int,
                     metrics: Map[String, (Double, String)]): String =
    Json.obj(Map(
      "correct" -> correct, "attempted" -> attempted, "failed" -> failed,
      "metrics" -> metrics.map { case (k, (v, u)) => k -> Map("value" -> v, "unit" -> u) }))

  @annotation.tailrec
  private def parse(args: List[String], o: Opts): Opts = args match {
    case Nil =>
      require(o.workload.nonEmpty, "--workload is required"); o
    case "--workload" :: v :: rest => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest => parse(rest, o.copy(trace = v == "1"))
    case other => throw new IllegalArgumentException(s"unexpected arguments: ${other.mkString(" ")}")
  }
}

/** Minimal JSON writer for the result lines (maps keep insertion order). */
object Json {
  def obj(m: Iterable[(String, Any)]): String =
    m.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}")

  def value(v: Any): String = v match {
    case m: Map[_, _] => obj(m.asInstanceOf[Map[String, Any]].toSeq.sortBy(_._1))
    case s: Iterable[_] => s.map(value).mkString("[", ", ", "]")
    case d: Double =>
      require(!d.isNaN && !d.isInfinite, s"non-finite value $d"); d.toString
    case b: Boolean => b.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case other => str(other.toString)
  }

  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""
}
