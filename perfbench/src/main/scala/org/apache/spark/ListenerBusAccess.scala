package org.apache.spark

/** The benchmark reads task and job events through a listener. Events reach
  * listeners asynchronously, so a span may only be closed once the bus has
  * delivered everything posted before it; the wait lives on package-private
  * API, hence this one-method bridge.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
