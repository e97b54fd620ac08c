package repro.engine

import scala.collection.mutable.{ArrayBuffer, ArrayDeque}
import repro.engine.Data.Row

/** Runtime elastic buffer (paper §4.2.2, Fig 11): the consumer-side receive
  * queue of an exchange operator (and, with producer == consumer node, the
  * local exchange inside a task).
  *
  * Capacity starts at one page. When the consumer polls an empty (but still
  * open) queue, it "turns the buffer up" — doubles the capacity and bumps the
  * turn-up counter. Every `elasticWindow` virtual seconds the capacity is
  * resized to twice the rows consumed in the window, so the cached amount
  * tracks the consumer's recent consumption rate. A queue whose turn-up
  * counter never moves marks its consumer as a computational bottleneck
  * (§5.1).
  */
final class ElasticQueue(
    val producerNode: Node,
    val consumerNode: Node,
    costs: CostModel,
    bytesPerRow: () => Double,
) {
  private val q = new ArrayDeque[Row]()
  private val capMax = costs.elasticMaxPages * costs.pageRows
  var capacity: Int = costs.pageRows
  var turnUps: Int = 0

  /** Producer finished — the "end page" has been delivered (§4.3). */
  var closed: Boolean = false

  private var consumedTotal: Long = 0L
  private var consumedAtWindow: Long = 0L

  def size: Int = q.size
  def nonEmpty: Boolean = q.nonEmpty
  def free: Int = math.max(0, capacity - q.size)
  def consumed: Long = consumedTotal

  /** Producer side: accept one row if there is space and (for cross-node
    * transfers) NIC budget on both ends. Returns false to backpressure.
    */
  def offer(row: Row): Boolean = {
    if (closed) return false
    if (free <= 0) return false
    if (!Node.chargeNet(producerNode, consumerNode, netBytes)) return false
    q.append(row)
    true
  }

  /** NIC bytes one row costs when it crosses nodes. */
  def netBytes: Double = costs.effBytes(bytesPerRow())

  /** Staged rows bypass flow control: the rebuild path (§4.5), and broadcast
    * rows already admitted by every target.
    */
  def forceOffer(row: Row): Unit = q.append(row)

  /** Consumer side: take up to `max` rows. */
  def poll(max: Int, into: ArrayBuffer[Row]): Int = {
    if (q.isEmpty) 0
    else {
      var n = 0
      while (n < max && q.nonEmpty) { into += q.removeHead(); n += 1 }
      consumedTotal += n
      n
    }
  }

  private def turnUp(): Unit =
    if (capacity < capMax) { capacity = math.min(capMax, capacity * 2); turnUps += 1 }

  /** Periodic consumer-side maintenance (paper: every 500 ms). A consumer that
    * drained the buffer dry this window is producer-limited: turn the buffer
    * up (capacity ×2, counter++ — the §5.1 bottleneck signal). Then track the
    * recent consumption rate so the cached amount matches what the consumer
    * can actually process.
    */
  def resizeToRate(): Unit = {
    val consumedInWindow = consumedTotal - consumedAtWindow
    consumedAtWindow = consumedTotal
    val target = math.max(costs.pageRows.toLong, math.min(capMax.toLong, 2L * consumedInWindow))
    capacity = math.max(target.toInt, q.size) // track rate; never below queued
    if (q.isEmpty && !closed && consumedInWindow > 0) turnUp()
  }

  def markEnd(): Unit = closed = true
  def endedAndEmpty: Boolean = closed && q.isEmpty
}

/** Task output buffer (paper §4.2.1, Fig 10): owns routing, shuffling and
  * parallelism-variation adaptation. Targets are the *downstream tasks'*
  * elastic receive queues; the target set changes at runtime as the downstream
  * stage's DOP changes (buffer-ID array growth/shrink, task-group switchover).
  *
  * With `cached = true` the buffer keeps a page cache of every emitted row —
  * the intermediate data cache that DOP switching rebuilds hash tables from
  * (§4.5, "fragment result caching" in Presto).
  */
final class OutputBuffer(
    val ownerNode: Node,
    val routing: Routing,
    cached: Boolean,
) {
  val cache: Option[ArrayBuffer[Row]] = if (cached) Some(ArrayBuffer[Row]()) else None
  private val cacheRows: ArrayBuffer[Row] = cache.orNull // per-row path: no Option

  /** Ordered by downstream task sequence number for hash routing. */
  private var targets: IndexedSeq[ElasticQueue] = Vector.empty
  private var rrCursor = 0

  /** Rows emitted through this buffer (stage throughput metric). */
  var rowsEmitted: Long = 0L
  var ended: Boolean = false

  def currentTargets: IndexedSeq[ElasticQueue] = targets

  /** Replace the full target set — used at wiring time and at DOP-switchover
    * time (the old group's queues must be end-marked by the caller).
    */
  def setTargets(qs: IndexedSeq[ElasticQueue]): Unit = targets = qs

  /** Grow or shrink the consumer set. Hash routing forbids both: keys would
    * move between targets mid-stream. A queue already targeted stays once, so
    * round-robin never weights it twice.
    */
  def addTarget(q: ElasticQueue): Unit = {
    requireUnhashed()
    if (!targets.exists(_ eq q)) targets = targets :+ q
  }

  def removeTarget(q: ElasticQueue): Unit = { requireUnhashed(); targets = targets.filterNot(_ eq q) }

  private def requireUnhashed(): Unit = if (routing.isInstanceOf[Routing.Hash])
    throw new IllegalStateException("a hash-routed buffer's targets are fixed until switchover")

  /** Try to emit one row; returns false to backpressure the producing driver.
    * Broadcast admits a row only if every live target has space and an open
    * NIC, then charges them all, so a row is never half-sent and a row that
    * costs more than one tick's budget still moves.
    */
  def tryEmit(row: Row): Boolean = {
    if (targets.isEmpty) return false
    val ok = routing match {
      case Routing.Hash(keyIdx) =>
        targets(Routing.partition(row(keyIdx), targets.size)).offer(row)
      case Routing.Single =>
        targets.head.offer(row)
      case Routing.RoundRobin =>
        var tried = 0
        var sent = false
        while (!sent && tried < targets.size) {
          val t = targets(rrCursor % targets.size)
          rrCursor += 1
          tried += 1
          if (!t.closed && t.offer(row)) sent = true
        }
        sent
      case Routing.Broadcast =>
        val live = targets.filterNot(_.closed)
        val admitted = live.forall(q => q.free > 0 && Node.netOpen(q.producerNode, q.consumerNode))
        if (admitted) live.foreach { q =>
          Node.debitNet(q.producerNode, q.consumerNode, q.netBytes)
          q.forceOffer(row)
        }
        admitted
    }
    if (ok) {
      rowsEmitted += 1
      if (cacheRows != null) cacheRows += row
    }
    ok
  }

  /** Could at least one row be emitted right now? (runnability check, run
    * for every driver each tick, so index loops rather than iterators)
    */
  def canEmit: Boolean = {
    var i = 0
    if (routing == Routing.Broadcast) {
      while (i < targets.length && (targets(i).closed || targets(i).free > 0)) i += 1
      targets.nonEmpty && i == targets.length
    } else {
      while (i < targets.length && (targets(i).closed || targets(i).free <= 0)) i += 1
      i < targets.length
    }
  }

  /** Producer-side end: the owning task finished — relay end pages downstream. */
  def markEnd(): Unit = {
    ended = true
    targets.foreach(_.markEnd())
  }
}
