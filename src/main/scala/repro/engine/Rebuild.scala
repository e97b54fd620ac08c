package repro.engine

import scala.collection.mutable.ArrayBuffer
import repro.engine.Data.Row

/** One completed DOP switch — the rows of the paper's Table 2. */
final case class SwitchRecord(stageId: Int, fromDop: Int, toDop: Int,
                              tRequest: Double, tShuffleDone: Double, tDone: Double) {
  def shuffleSeconds: Double = tShuffleDone - tRequest
  def buildSeconds: Double = tDone - tShuffleDone
  def totalSeconds: Double = tDone - tRequest
  override def toString: String =
    f"S$stageId $fromDop->$toDop total=$totalSeconds%.2fs shuffle=$shuffleSeconds%.2fs build=$buildSeconds%.2fs"
}

/** Rebuilds a distributed hash table for a join stage from the build-side
  * intermediate data caches (§4.5, Fig 17): phase 1 re-partitions the cached
  * rows with shuffle workers running on the source nodes; phase 2 force-feeds
  * the new tasks' local exchanges and lets their build drivers construct the
  * tables in parallel. When every target task's table is ready the stage's
  * `finishRebuild` joins them to the probe routing. The running query is
  * never paused: workers and build drivers compete for cores with the old
  * group's probe drivers.
  */
final class RebuildJob(
    val stage: JoinStageExec,
    val group: TaskGroup,
    val targets: Vector[TaskExec],
    val startedAt: Double,
) {
  private val costs = stage.qe.costs
  private val broadcastAll = stage.joinDef.broadcast
  private val keyIdx = stage.joinDef.buildKeyIdx
  private val staging: Array[ArrayBuffer[Row]] =
    Array.fill(targets.size)(new ArrayBuffer[Row]())

  var tShuffleDone: Double = -1.0
  private var phase = 1

  private def partitionOf(row: Row): Int = Routing.partition(row(keyIdx), targets.size)

  /** One shuffle worker per (source cache, target task): the executor count
    * scales with the downstream task count, as in the paper's shuffle buffers
    * — which is why Table 2's shuffle time shrinks as the target DOP grows.
    * Partitioned rebuilds give each worker a 1/M slice of its source; a
    * broadcast rebuild copies the full source once per new task. Workers run
    * on the target tasks' nodes.
    */
  private val workers: Vector[ShuffleWorker] = stage.buildCaches.flatMap { case (_, rows) =>
    val m = targets.size
    targets.zipWithIndex.map { case (t, ti) =>
      val slice =
        if (broadcastAll) rows
        else rows.slice(ti * rows.size / m, (ti + 1) * rows.size / m)
      val part: Data.Row => Int = if (broadcastAll) _ => ti else partitionOf
      val w = new ShuffleWorker(slice, costs, part, staging)
      t.node.register(w)
      w
    }
  }

  /** Called from the owning stage's housekeeping every tick. */
  def step(now: Double): Unit = {
    if (phase == 1 && workers.forall(_.done)) {
      tShuffleDone = now
      var i = 0
      while (i < targets.length) {
        val le = targets(i).localExchange
        staging(i).foreach(le.forceOffer)
        le.markEnd()
        staging(i).clear()
        i += 1
      }
      phase = 2
    }
    if (phase == 2 && targets.forall(_.hashReady)) {
      phase = 3
      stage.finishRebuild(this, now)
    }
  }
}

/** Re-partitions one source cache on its node's cores (shuffle executor). */
final class ShuffleWorker(rows: Vector[Row], costs: CostModel,
                          partitionOf: Row => Int,
                          staging: Array[ArrayBuffer[Row]]) extends Ticker {
  private var pos = 0
  private var credit = 0.0
  private val cost = costs.eff(costs.shuffleRow)

  def runnable: Boolean = pos < rows.length
  def done: Boolean = pos >= rows.length

  def advance(cpuSeconds: Double): Double = {
    if (done) return 0.0
    val budget = cpuSeconds + credit
    val n = math.min((budget / cost).toInt, rows.length - pos)
    if (n == 0) { credit = budget; return 0.0 }
    credit = budget - n * cost
    var i = pos
    while (i < pos + n) { staging(partitionOf(rows(i))) += rows(i); i += 1 }
    pos += n
    n * cost
  }
}
