package repro.engine

import scala.collection.mutable
import scala.collection.mutable.{ArrayBuffer, ArrayDeque}
import repro.engine.Data.Row

/** Per-driver partial aggregation (§4.1): the map can be flushed (destroyed and
  * reconstructed) at any time, which is what makes the operator stateless for
  * elasticity purposes. Output rows carry accumulator objects after the keys.
  */
final class PartialAggregator(spec: AggSpec, flushGroups: Int) {
  private val map = mutable.LinkedHashMap[Vector[Any], Array[Any]]()

  def update(row: Row): Unit = {
    val key = spec.keyOf(row)
    val accs = map.getOrElseUpdate(key, spec.aggs.map(_.init()).toArray)
    var i = 0
    while (i < accs.length) { accs(i) = spec.aggs(i).update(accs(i), row); i += 1 }
  }

  def maybeFlush(out: ArrayDeque[Row]): Unit = if (map.size >= flushGroups) flush(out)

  def flush(out: ArrayDeque[Row]): Unit = {
    map.foreach { case (k, accs) =>
      val r = new Array[Any](k.length + accs.length)
      var i = 0
      while (i < k.length) { r(i) = k(i); i += 1 }
      var j = 0
      while (j < accs.length) { r(k.length + j) = accs(j); j += 1 }
      out.append(r)
    }
    map.clear()
  }
}

/** The fused filter → project → partial-aggregation tail that scan and probe
  * chains run on each row they produce (§4.1).
  */
final class FusedTail(filter: Option[Pred], project: Option[Vector[NamedExpr]],
                      partialAgg: Option[AggSpec], costs: CostModel) {
  // null where the chain has no such operator: this runs once per produced row
  private val filterF: Row => Boolean = filter.map(_.f).orNull
  private val projectF: Array[Row => Any] = project.map(_.map(_.f).toArray).orNull
  private val agg: PartialAggregator =
    partialAgg.map(new PartialAggregator(_, costs.partialAggFlushGroups)).orNull

  /** Virtual seconds per input row of a chain whose own operators cost `head`. */
  def rowCost(head: Double, routing: Routing): Double = costs.eff(
    head +
      filter.map(_ => costs.filterRow).getOrElse(0.0) +
      project.map(_ => costs.projectRow).getOrElse(0.0) +
      partialAgg.map(_ => costs.partialAggRow).getOrElse(0.0) +
      Drivers.routingCost(routing, costs))

  def push(row: Row, out: ArrayDeque[Row]): Unit =
    if (filterF == null || filterF(row)) {
      val projected =
        if (projectF == null) row
        else {
          val r = new Array[Any](projectF.length)
          var i = 0
          while (i < r.length) { r(i) = projectF(i)(row); i += 1 }
          r
        }
      if (agg == null) out.append(projected)
      else { agg.update(projected); agg.maybeFlush(out) }
    }

  def flush(out: ArrayDeque[Row]): Unit = if (agg != null) agg.flush(out)
}

/** The driver: smallest unit of scheduling and execution (§2). A driver runs a
  * fixed operator chain; its lifecycle is running → finishing (end page seen or
  * end signal received; stateful results flushed) → finished — the paper's
  * three operator states and the "end page relay game" (Fig 13).
  */
abstract class DriverExec(val task: TaskExec) extends Ticker {
  protected val qe: QueryExec = task.stage.qe
  protected val costs: CostModel = qe.costs
  protected val out = new ArrayDeque[Row]()
  private val batch = new ArrayBuffer[Row](512)

  var activeAfter: Double = 0.0

  /** End signal (§4.3, decrease task DOP): stop pulling, flush, finish. */
  var closing = false
  protected var finishing = false
  private var finishedFlag = false
  private var credit = 0.0

  /** Effective virtual seconds per input row for the whole chain. */
  def rowCost: Double

  /** Queues this driver polls round-robin (a join's probe side by default). */
  protected def inputs: ArrayBuffer[ElasticQueue] = task.inputQueues

  protected def pullInto(n: Int, buf: ArrayBuffer[Row]): Int = pollQueues(inputs, n, buf)
  protected def inputAvailable: Boolean = inputs.exists(_.nonEmpty)
  protected def inputEnded: Boolean = inputs.nonEmpty && inputs.forall(_.endedAndEmpty)
  protected def process(row: Row): Unit

  /** Process the first `n` pulled rows, in order. */
  protected def processBatch(rows: ArrayBuffer[Row], n: Int): Unit = {
    var i = 0
    while (i < n) { process(rows(i)); i += 1 }
  }

  protected def emit(row: Row): Boolean = {
    val ok = task.outputBuffer.tryEmit(row)
    if (ok) task.stage.noteRowBytes(row)
    ok
  }
  protected def emitTargetHasSpace: Boolean = task.outputBuffer.canEmit

  /** Extra gating, e.g. probe drivers wait for the hash table (§4.1). */
  protected def gate: Boolean = true

  /** Flush stateful results (partial agg map, final agg) into `out`. */
  protected def onFinish(): Unit = ()

  final def done: Boolean = finishedFlag

  final def runnable: Boolean = {
    if (finishedFlag || qe.now < activeAfter || !gate) false
    else if (out.nonEmpty) emitTargetHasSpace
    else if (finishing || closing) true
    else inputAvailable || inputEnded
  }

  private def flushOut(): Unit = {
    while (out.nonEmpty && emit(out.head)) out.removeHead()
  }

  final def advance(cpuSeconds: Double): Double = {
    if (finishedFlag) return 0.0
    var budget = cpuSeconds + credit
    credit = 0.0
    var used = 0.0
    flushOut()
    if (!finishing && (closing || (inputEnded && !inputAvailable))) {
      finishing = true
      onFinish()
      flushOut()
    }
    var looping = !finishing
    while (looping && out.isEmpty && budget >= rowCost) {
      batch.clear()
      val want = math.min((budget / rowCost).toInt, DriverExec.MaxBatch)
      val n = pullInto(want, batch)
      if (n == 0) {
        if (inputEnded && !inputAvailable) {
          finishing = true
          onFinish()
          flushOut()
        }
        looping = false
      } else {
        processBatch(batch, n)
        val c = n * rowCost
        budget -= c
        used += c
        flushOut()
      }
    }
    if (!finishing && budget > 0 && budget < rowCost && inputAvailable && out.isEmpty)
      credit = budget // sub-row remainder so slow clocks still make progress
    if (finishing && out.isEmpty) finishedFlag = true
    used
  }

  /** Round-robin poll across a dynamic queue list. */
  private var pollCursor = 0
  private def pollQueues(queues: ArrayBuffer[ElasticQueue], n: Int, buf: ArrayBuffer[Row]): Int = {
    val sz = queues.size
    if (sz == 0) return 0
    var got = 0
    var tried = 0
    while (got < n && tried < sz) {
      got += queues((pollCursor + tried) % sz).poll(n - got, buf)
      tried += 1
    }
    pollCursor = (pollCursor + 1) % sz
    got
  }
}

object DriverExec {
  /** Most rows one `advance` step pulls and processes at once. */
  val MaxBatch = 2048
}

/** Table scan driver: claims splits from the per-node pool, applies fused
  * filter/project/partial-agg, pushes to the task output buffer.
  */
final class ScanDriver(task: TaskExec, stage: ScanStageExec) extends DriverExec(task) {
  private val defn = stage.scanDef
  private val tail = new FusedTail(defn.filter, defn.project, defn.partialAgg, costs)

  val rowCost: Double = tail.rowCost(costs.scanRow, task.outputBuffer.routing)

  override protected def pullInto(n: Int, buf: ArrayBuffer[Row]): Int = {
    val got = stage.claimRows(task.node.id, n, buf)
    stage.noteScanned(got)
    got
  }

  override protected def inputAvailable: Boolean = stage.hasSplits(task.node.id)
  override protected def inputEnded: Boolean = !inputAvailable

  protected def process(row: Row): Unit = tail.push(row, out)

  override protected def onFinish(): Unit = tail.flush(out)
}

/** Exchange → local-exchange-sink driver feeding the build pipeline. */
final class FeedDriver(task: TaskExec) extends DriverExec(task) {
  val rowCost: Double = costs.eff(costs.exchangeRow)
  override protected def inputs: ArrayBuffer[ElasticQueue] = task.buildQueues
  protected def process(row: Row): Unit = out.append(row)
  override protected def emit(row: Row): Boolean = task.localExchange.offer(row)
  override protected def emitTargetHasSpace: Boolean = task.localExchange.free > 0
}

/** Local-exchange-source → hash-build driver. */
final class BuildDriver(task: TaskExec, keyIdx: Int) extends DriverExec(task) {
  val rowCost: Double = costs.eff(costs.buildRow)
  override protected val inputs: ArrayBuffer[ElasticQueue] = ArrayBuffer(task.localExchange)
  protected def process(row: Row): Unit = task.hashTable.insert(row(keyIdx), row)
  override protected def emit(row: Row): Boolean = true
  override protected def emitTargetHasSpace: Boolean = true
}

/** Probe driver: exchange → probe → fused post-ops → task output. A pulled
  * batch is probed in two passes (the staged probe of vectorized engines):
  * the first resolves every row's chain head in a tight loop, so the CPU
  * overlaps the table's cache misses; the second joins and emits in row
  * order, exactly as probing one row at a time would.
  */
final class ProbeDriver(task: TaskExec, stage: JoinStageExec) extends DriverExec(task) {
  private val defn = stage.joinDef
  private val probeKey = defn.probeKeyIdx
  private val tail = new FusedTail(defn.postFilter, defn.project, defn.partialAgg, costs)
  private val heads = new Array[Int](DriverExec.MaxBatch)

  val rowCost: Double = tail.rowCost(costs.exchangeRow + costs.probeRow, task.outputBuffer.routing)

  override protected def gate: Boolean = task.hashReady

  protected def process(row: Row): Unit = joinChain(row, task.hashTable.head(row(probeKey)))

  override protected def processBatch(rows: ArrayBuffer[Row], n: Int): Unit = {
    val ht = task.hashTable
    var i = 0
    while (i < n) { heads(i) = ht.head(rows(i)(probeKey)); i += 1 }
    i = 0
    while (i < n) { joinChain(rows(i), heads(i)); i += 1 }
  }

  /** Join `row` with the build rows chained from index `head`, in insertion order. */
  private def joinChain(row: Row, head: Int): Unit = {
    val ht = task.hashTable
    var m = head
    while (m >= 0) {
      val b = ht.row(m)
      val joined = new Array[Any](b.length + row.length)
      System.arraycopy(b, 0, joined, 0, b.length)
      System.arraycopy(row, 0, joined, b.length, row.length)
      tail.push(joined, out)
      m = ht.nextOf(m)
    }
  }

  override protected def onFinish(): Unit = tail.flush(out)
}

/** Shuffle-stage driver (§4.6): exchange → task output; the hash-partitioning
  * cost sits in its routing cost, which is the point of the elastic shuffle
  * stage — that CPU moves off the scan nodes onto however many shuffle tasks
  * the user schedules.
  */
final class PipeDriver(task: TaskExec) extends DriverExec(task) {
  val rowCost: Double = costs.eff(
    costs.exchangeRow + Drivers.routingCost(task.outputBuffer.routing, costs))
  protected def process(row: Row): Unit = out.append(row)
}

/** Final aggregation driver: merges partial rows; stage/task DOP fixed at 1. */
final class FinalAggDriver(task: TaskExec, spec: AggSpec) extends DriverExec(task) {
  private val g = spec.groupIdx.length
  private val map = mutable.LinkedHashMap[Vector[Any], Array[Any]]()
  val rowCost: Double = costs.eff(costs.finalAggRow)

  protected def process(row: Row): Unit = {
    val key = (0 until g).map(row).toVector
    map.get(key) match {
      case Some(accs) =>
        var i = 0
        while (i < accs.length) { accs(i) = spec.aggs(i).merge(accs(i), row(g + i)); i += 1 }
      case None =>
        val accs = new Array[Any](spec.aggs.length)
        var i = 0
        while (i < accs.length) { accs(i) = row(g + i); i += 1 }
        map(key) = accs
    }
  }

  override protected def onFinish(): Unit = {
    if (map.isEmpty && g == 0) {
      // global aggregate over zero rows still yields one row of initial values
      val r = new Array[Any](spec.aggs.length)
      var i = 0
      while (i < r.length) { r(i) = spec.aggs(i).result(spec.aggs(i).init()); i += 1 }
      out.append(r)
    } else map.foreach { case (k, accs) =>
      val r = new Array[Any](g + accs.length)
      var i = 0
      while (i < g) { r(i) = k(i); i += 1 }
      var j = 0
      while (j < accs.length) { r(g + j) = spec.aggs(j).result(accs(j)); j += 1 }
      out.append(r)
    }
  }
}

/** Output driver: collects result rows on the coordinator. */
final class OutputDriver(task: TaskExec) extends DriverExec(task) {
  val rowCost: Double = costs.eff(costs.exchangeRow)
  protected def process(row: Row): Unit = qe.resultRows += row
  override protected def emit(row: Row): Boolean = true
  override protected def emitTargetHasSpace: Boolean = true
}

object Drivers {
  /** CPU charged at the output side of a driver chain: hash/broadcast routing
    * is shuffle work (paper's shuffle buffer executors) billed to the
    * producing task's node.
    */
  def routingCost(r: Routing, costs: CostModel): Double = r match {
    case Routing.Hash(_) => costs.shuffleRow
    case Routing.Broadcast => costs.shuffleRow
    case _ => 0.0
  }
}
