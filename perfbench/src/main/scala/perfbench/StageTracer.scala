package perfbench

import scala.collection.mutable

import org.apache.spark.{ListenerBusAccess, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** Spans around calls into the program's layers, with the Spark work each
  * span caused, taken from a listener the benchmark registers (the program
  * itself is not instrumented).
  *
  * Per span name, summed over its calls: wall time, driver-only time (span
  * time during which no task was running: plan analysis, code generation,
  * scheduling), summed executor run time, jobs, rows out and shuffle bytes
  * written.
  */
final class StageTracer(sc: SparkContext) {

  final case class Totals(
      wallS: Double = 0, driverS: Double = 0, taskS: Double = 0,
      jobs: Long = 0, rowsOut: Long = 0, shuffleBytes: Long = 0)

  private final case class Task(launchMs: Long, finishMs: Long, runMs: Long, shuffleBytes: Long)

  private val tasks = mutable.ArrayBuffer.empty[Task]
  private var jobs = 0L

  private val listener = new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit =
      StageTracer.this.synchronized { jobs += 1 }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
      val m = e.taskMetrics
      val run = if (m == null) 0L else m.executorRunTime
      val shuffle = if (m == null) 0L else m.shuffleWriteMetrics.bytesWritten
      StageTracer.this.synchronized {
        tasks += Task(e.taskInfo.launchTime, e.taskInfo.finishTime, run, shuffle)
      }
    }
  }
  sc.addSparkListener(listener)

  private val totals = mutable.LinkedHashMap.empty[String, Totals]

  /** Names of the spans recorded so far, in first-call order. */
  def names: Seq[String] = totals.keys.toSeq

  def apply(name: String): Totals = totals.getOrElse(name, Totals())

  /** Run `body` as one call of span `name`; `body` returns its output row
    * count, having forced its output.
    */
  def span[A](name: String)(body: => (A, Long)): A = {
    ListenerBusAccess.drain(sc)
    val (jobs0, tasks0) = synchronized((jobs, tasks.size))
    val startMs = System.currentTimeMillis()
    val t0 = System.nanoTime()
    val (out, rows) = body
    val wall = (System.nanoTime() - t0) / 1e9
    val endMs = System.currentTimeMillis()
    ListenerBusAccess.drain(sc)
    val (jobs1, spanTasks) = synchronized((jobs, tasks.slice(tasks0, tasks.size).toSeq))
    val busyS = coveredMs(spanTasks, startMs, endMs) / 1e3
    val t = apply(name)
    totals(name) = Totals(
      wallS = t.wallS + wall,
      driverS = t.driverS + math.max(0.0, wall - busyS),
      taskS = t.taskS + spanTasks.map(_.runMs).sum / 1e3,
      jobs = t.jobs + (jobs1 - jobs0),
      rowsOut = t.rowsOut + rows,
      shuffleBytes = t.shuffleBytes + spanTasks.map(_.shuffleBytes).sum)
    out
  }

  /** Milliseconds of [startMs, endMs] covered by at least one task. */
  private def coveredMs(ts: Seq[Task], startMs: Long, endMs: Long): Long = {
    val iv = ts.map(t => (math.max(t.launchMs, startMs), math.min(t.finishMs, endMs)))
      .filter { case (a, b) => b > a }.sortBy(_._1)
    var covered = 0L
    var curA = -1L
    var curB = -1L
    for ((a, b) <- iv) {
      if (a > curB) {
        if (curB > curA) covered += curB - curA
        curA = a; curB = b
      } else curB = math.max(curB, b)
    }
    if (curB > curA) covered += curB - curA
    covered
  }

  def close(): Unit = sc.removeSparkListener(listener)
}
