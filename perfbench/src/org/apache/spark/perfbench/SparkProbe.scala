package org.apache.spark.perfbench

import org.apache.spark.{SparkContext, SparkEnv}
import org.apache.spark.storage.BroadcastBlockId

/** Read-only views of driver internals that Spark keeps `private[spark]`.
  * Lives in Spark's package for that access only; nothing here changes state.
  */
object SparkProbe {

  /** Block until every posted listener event has been delivered, so counters
    * read afterwards cover all jobs that have finished.
    */
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)

  /** Number of distinct broadcast variables with a block in the driver's
    * block manager: created and neither destroyed nor cleaned up after GC.
    */
  def liveBroadcasts(): Int =
    SparkEnv.get.blockManager
      .getMatchingBlockIds(_.isBroadcast)
      .collect { case b: BroadcastBlockId => b.broadcastId }
      .distinct
      .size
}
