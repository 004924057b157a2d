package org.apache.spark

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

/** Counts the Spark jobs started while a block runs. Listener events are
  * delivered asynchronously, so the count waits for the bus to deliver
  * every event posted before and during the block; that wait is
  * package-private API, hence this package.
  */
object JobCounter {
  def apply[A](sc: SparkContext)(body: => A): (A, Long) = {
    val jobs = new AtomicLong
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    sc.listenerBus.waitUntilEmpty()
    sc.addSparkListener(listener)
    try {
      val out = body
      sc.listenerBus.waitUntilEmpty()
      (out, jobs.get)
    } finally sc.removeSparkListener(listener)
  }
}
