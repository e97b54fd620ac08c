package repro.engine

import scala.collection.mutable.{ArrayBuffer, ArrayDeque}
import repro.engine.Data.Row

/** Base of the per-stage executors. Owns the task groups, running byte
  * estimates for NIC accounting, and completion detection.
  */
abstract class StageExec(val defn: StageDef, val qe: QueryExec) {
  val id: Int = defn.id
  val groups = ArrayBuffer[TaskGroup]()
  private var nextGroupId = 0

  /** Every task in spawn order, which is group-major: tasks join only the
    * newest group, so this equals `groups.flatMap(_.tasks)`.
    */
  private val tasks = ArrayBuffer[TaskExec]()

  /** The group currently receiving input (probe) rows. */
  var activeGroup: TaskGroup = _

  var completed = false
  var completedAt: Double = -1.0

  /** Running average output row size, for NIC charging. */
  var rowBytesAvg: Double = 32.0
  private var rowBytesN: Long = 0L

  /** Count an emitted row; only the first 1024 and every 64th after are sized. */
  def noteRowBytes(row: Row): Unit = {
    rowBytesN += 1
    if (rowBytesN <= 1024 || (rowBytesN & 63) == 0)
      rowBytesAvg += (Bytes.ofRow(row) - rowBytesAvg) / math.min(rowBytesN, 1024L).toDouble
  }

  protected def newGroup(): TaskGroup = {
    val g = new TaskGroup(nextGroupId)
    nextGroupId += 1
    groups += g
    g
  }

  def allTasks: collection.IndexedSeq[TaskExec] = tasks
  def liveTasks: collection.IndexedSeq[TaskExec] = tasks.filterNot(_.finished)

  def rowsOut: Long = {
    var n = 0L
    var i = 0
    while (i < tasks.length) { n += tasks(i).outputBuffer.rowsEmitted; i += 1 }
    n
  }

  def finishedTaskCount: Int = {
    var n = 0
    var i = 0
    while (i < tasks.length) { if (tasks(i).finished) n += 1; i += 1 }
    n
  }

  /** Drivers not yet done in unfinished tasks: the allocated parallelism. */
  def liveDriverCount: Int = {
    var n = 0
    var i = 0
    while (i < tasks.length) { if (!tasks(i).finished) n += tasks(i).driverCount; i += 1 }
    n
  }

  /** The task count a stage-DOP request starts from: the active group's
    * unfinished tasks (a partitioned join counts its whole group).
    */
  def stageDop: Int = if (activeGroup == null) 0 else activeGroup.tasks.count(!_.finished)

  def taskDop: Int = allTasks.filterNot(_.finished).flatMap(_.pipelines.find(p => tunableKind.contains(p.kind)))
    .map(_.activeCount).maxOption.getOrElse(1)

  /** Pipeline kind whose driver count intra-task tuning adjusts. */
  def tunableKind: Option[PipelineKind] = None

  /** The stage whose rows arrive in this stage's input queues (a join's probe side). */
  def inputStage: StageExec = qe.stage(qe.plan.probeChildOf(id).get)

  /** Task count of the initial group. */
  protected def initialDop: Int = qe.stageDopFor(id)

  /** Node for a new task with sequence number `seq`. */
  protected def nodeFor(seq: Int): Node = qe.cluster.nextComputeNode()

  /** Build a new task's pipelines, `taskDop` drivers where the stage allows it. */
  protected def addPipelines(t: TaskExec, taskDop: Int, now: Double): Unit

  /** Create a task, add it to `g` and build its pipelines. */
  protected def spawnTask(g: TaskGroup, seq: Int, taskDop: Int, now: Double): TaskExec = {
    val t = new TaskExec(this, g, seq, nodeFor(seq))
    g.tasks += t
    tasks += t
    addPipelines(t, taskDop, now)
    t
  }

  /** Create the initial task group; called once by QueryExec.init. */
  def initTasks(now: Double): Unit = {
    activeGroup = newGroup()
    (0 until initialDop).foreach(i => spawnTask(activeGroup, i, qe.taskDop0, now))
  }

  /** End-signal one task (decrease stage DOP, §4.4): the last live task that
    * is `eligible` leaves its producers' targets and its input queues are
    * end-marked, so it drains and closes. Keeps at least one task.
    */
  def removeTask(eligible: TaskExec => Boolean = _ => true): Boolean = {
    val candidates = activeGroup.tasks.filter(t => !t.finished && eligible(t))
    if (candidates.size <= 1) false
    else {
      val t = candidates.last
      inputStage.allTasks.foreach(p => t.inputQueues.foreach(p.outputBuffer.removeTarget))
      t.inputQueues.foreach(_.markEnd())
      true
    }
  }

  def housekeeping(now: Double): Unit = {
    var i = 0
    while (i < tasks.length) { tasks(i).housekeeping(now); i += 1 }
    stepExtra(now)
    if (!completed && groups.nonEmpty && finishedTaskCount == tasks.length && extraComplete) {
      completed = true
      completedAt = now
    }
  }

  protected def stepExtra(now: Double): Unit = ()
  protected def extraComplete: Boolean = true

  /** Why a stage-DOP request for `to` tasks cannot be applied to this stage,
    * if it cannot. `DynamicScheduler.refusal` checks the rules every stage
    * shares first.
    */
  def stageDopRefusal(to: Int): Option[String] = Some(s"S$id ($kindName) has fixed stage DOP")

  /** Apply a stage-DOP request that `stageDopRefusal` admits; returns the
    * scheduler's log line.
    */
  def setStageDop(to: Int, now: Double): String =
    throw new UnsupportedOperationException(s"S$id ($kindName) has fixed stage DOP")

  def kindName: String
}

/** Table scan stage: one task pinned to each data node that holds splits of the
  * table; splits are claimed from per-node pools by scan drivers, so intra-task
  * DOP tuning freely adds/removes drivers (§4.3).
  */
final class ScanStageExec(val scanDef: ScanStageDef, qe0: QueryExec) extends StageExec(scanDef, qe0) {
  /** Per-node page cursor over the node's splits: drivers claim page-sized
    * chunks from a shared cursor, so data chunks are "divided into smaller
    * pages distributed among [drivers] for parallel processing" (§2) and scan
    * task-DOP tuning parallelizes even a single large split.
    */
  private final class NodePool(splits: Vector[Split]) {
    private val queue = ArrayDeque.from(splits.sortBy(_.id))
    private var cur: Array[Row] = Array.empty
    private var pos = 0
    def claim(maxRows: Int, buf: ArrayBuffer[Data.Row]): Int = {
      var got = 0
      var more = true
      while (got < maxRows && more) {
        if (pos >= cur.length) {
          if (queue.isEmpty) more = false
          else { cur = queue.removeHead().rows; pos = 0 }
        }
        if (more && pos < cur.length) {
          val take = math.min(maxRows - got, cur.length - pos)
          var i = 0
          while (i < take) { buf += cur(pos + i); i += 1 }
          pos += take
          got += take
        }
      }
      got
    }
    def hasRows: Boolean = pos < cur.length || queue.nonEmpty
  }

  /** Split pools by data node id; null where a node holds none of the table. */
  private val pools: Array[NodePool] = {
    val byNode = scanDef.table.splits.groupBy(_.nodeId)
    Array.tabulate(byNode.keys.maxOption.fold(0)(_ + 1))(n => byNode.get(n).map(new NodePool(_)).orNull)
  }
  private def pool(nodeId: Int): NodePool = if (nodeId < pools.length) pools(nodeId) else null

  val totalRows: Long = scanDef.table.rowCount
  private var scannedRows: Long = 0L

  def noteScanned(n: Int): Unit = scannedRows += n
  def scanned: Long = scannedRows
  def remainingRows: Long = totalRows - scannedRows
  def progress: Double = if (totalRows == 0) 1.0 else scannedRows.toDouble / totalRows

  def claimRows(nodeId: Int, maxRows: Int,
                buf: ArrayBuffer[Data.Row]): Int =
    if (pool(nodeId) == null) 0 else pool(nodeId).claim(maxRows, buf)

  def hasSplits(nodeId: Int): Boolean = pool(nodeId) != null && pool(nodeId).hasRows

  override def tunableKind: Option[PipelineKind] = Some(PipelineKind.Scan)

  protected override def initialDop: Int = scanDef.table.nodeIds.size
  protected override def nodeFor(seq: Int): Node = qe.cluster.node(scanDef.table.nodeIds(seq))

  protected def addPipelines(t: TaskExec, taskDop: Int, now: Double): Unit =
    t.addPipeline(PipelineKind.Scan, taskDop, now)(new ScanDriver(_, this))

  def kindName: String = s"scan(${scanDef.table.name})"
}

/** Join stage: build-feed, build and probe pipelines per task; partitioned
  * joins switch DOP via task-group replacement (§4.5), broadcast joins add
  * tasks that rebuild their private hash table from the cached build side.
  */
final class JoinStageExec(val joinDef: JoinStageDef, qe0: QueryExec) extends StageExec(joinDef, qe0) {
  private var rebuild: Option[RebuildJob] = None
  val switchLog = ArrayBuffer[SwitchRecord]()

  override def tunableKind: Option[PipelineKind] = Some(PipelineKind.Probe)

  def buildUpstream: StageExec = qe.stage(joinDef.buildStageId)

  override def stageDop: Int =
    if (joinDef.broadcast || activeGroup == null) super.stageDop else activeGroup.dop

  /** Tasks created at query start pull the build side through feed drivers;
    * tasks created later get their local exchange force-fed by a RebuildJob.
    */
  protected def addPipelines(t: TaskExec, taskDop: Int, now: Double): Unit = {
    t.localExchange = new ElasticQueue(t.node, t.node, qe.costs, () => 0.0)
    t.hashTable = new JoinHashTable
    t.addPipeline(PipelineKind.Feed, if (qe.initialized) 0 else 1, now)(new FeedDriver(_))
    t.addPipeline(PipelineKind.Build, math.max(1, taskDop), now)(new BuildDriver(_, joinDef.buildKeyIdx))
    t.addPipeline(PipelineKind.Probe, math.max(1, taskDop), now)(new ProbeDriver(_, this))
  }

  /** All build-side caches (across every upstream task, old and new groups). */
  def buildCaches: Vector[(Node, Vector[Data.Row])] =
    buildUpstream.allTasks.toVector.flatMap { t =>
      t.outputBuffer.cache.map(c => (t.node, c.toVector))
    }

  def buildCacheRows: Long = buildUpstream.allTasks.map(_.outputBuffer.cache.map(_.size.toLong).getOrElse(0L)).sum

  protected override def stepExtra(now: Double): Unit = rebuild.foreach(_.step(now))

  protected override def extraComplete: Boolean = rebuild.isEmpty

  override def stageDopRefusal(to: Int): Option[String] =
    if (rebuild.nonEmpty) Some(s"S$id: a DOP switch is already in flight")
    else if (to == stageDop) Some("no-op request")
    else Option.when(!buildUpstream.completed)(s"S$id: build side still streaming; cache incomplete")

  /** A partitioned join switches DOP into a new task group (§4.5); a broadcast
    * join appends tasks to its group (§4.4). Either way the new tasks build
    * their tables from the build-side caches while the old ones keep probing.
    * A broadcast decrease end-signals tasks whose table is ready.
    */
  override def setStageDop(to: Int, now: Double): String = {
    require(stageDopRefusal(to).isEmpty, stageDopRefusal(to).mkString)
    val cur = stageDop
    if (!joinDef.broadcast) {
      rebuildInto(newGroup(), to, math.max(1, taskDop), now)
      s"AP S$id $cur -> $to (DOP switch)"
    } else if (to > cur) {
      rebuildInto(activeGroup, to - cur, qe.taskDop0, now)
      s"AP S$id $cur -> $to (broadcast rebuild)"
    } else {
      var n = cur
      while (n > to && removeTask(_.hashReady)) n -= 1
      s"RP S$id $cur -> $n"
    }
  }

  /** Spawn `n` tasks into `g` and start the RebuildJob that fills their hash
    * tables. Each task's output is wired downstream, and it gets one probe
    * queue per upstream task, which joins the probe routing in `finishRebuild`.
    */
  private def rebuildInto(g: TaskGroup, n: Int, taskDop: Int, now: Double): Unit = {
    val seq0 = g.tasks.map(_.seq).maxOption.fold(0)(_ + 1)
    val fresh = Vector.tabulate(n) { i =>
      val t = spawnTask(g, seq0 + i, taskDop, now)
      qe.wireProducer(t)
      inputStage.allTasks.foreach(t.addConsumerQueue)
      t
    }
    rebuild = Some(new RebuildJob(this, g, fresh, now))
  }

  /** Every rebuilt table is ready: the new tasks join the probe routing, and
    * probe processing is never paused. Each probe producer adds them to its
    * round-robin (broadcast) or is re-routed to the new group, whose old group
    * is end-signalled so it drains and closes (partitioned). A producer spawned
    * mid-rebuild (an elastic shuffle task) gets its queue here.
    */
  private[engine] def finishRebuild(job: RebuildJob, now: Double): Unit = {
    inputStage.allTasks.foreach { p =>
      val queues = job.targets.map(t => t.queueOf(p).getOrElse(t.addConsumerQueue(p)))
      if (p.finished) queues.foreach(_.markEnd())
      else if (joinDef.broadcast) queues.foreach(p.outputBuffer.addTarget)
      else p.outputBuffer.setTargets(queues)
    }
    val fromDop =
      if (joinDef.broadcast) job.group.dop - job.targets.size
      else {
        val old = activeGroup
        old.tasks.foreach(_.inputQueues.foreach(_.markEnd()))
        activeGroup = job.group
        old.dop
      }
    switchLog += SwitchRecord(id, fromDop, job.group.dop, job.startedAt, job.tShuffleDone, now)
    rebuild = None
  }

  def kindName: String = if (joinDef.broadcast) "joinB" else "joinP"
}

/** Elastic shuffle stage (§4.6): stateless, so tasks can be added/removed at
  * will; input is round-robin from the scan, output is the hash partitioning
  * the scan would otherwise have to do.
  */
final class PipeStageExec(val pipeDef: ShuffleStageDef, qe0: QueryExec) extends StageExec(pipeDef, qe0) {
  override def tunableKind: Option[PipelineKind] = Some(PipelineKind.Pipe)

  protected def addPipelines(t: TaskExec, taskDop: Int, now: Double): Unit =
    t.addPipeline(PipelineKind.Pipe, taskDop, now)(new PipeDriver(_))

  override def stageDopRefusal(to: Int): Option[String] =
    if (to == stageDop) Some("no-op request")
    else Option.when(to > stageDop && inputStage.liveTasks.isEmpty)(
      s"S$id: input already drained; a new task would get no rows")

  /** Add tasks at runtime, each wired in from the unfinished child-stage
    * producers and out downstream, or end-signal tasks to remove them.
    */
  override def setStageDop(to: Int, now: Double): String = {
    val cur = stageDop
    if (to > cur) (cur until to).foreach { _ =>
      val t = spawnTask(activeGroup, activeGroup.tasks.map(_.seq).max + 1, qe.taskDop0, now)
      inputStage.allTasks.foreach { p =>
        if (!p.finished) p.outputBuffer.addTarget(t.addConsumerQueue(p))
      }
      qe.wireProducer(t)
    }
    else (to until cur).foreach(_ => removeTask())
    s"AP S$id $cur -> $to"
  }

  def kindName: String = "shuffle"
}

/** Final aggregation stage: stage and task DOP pinned to 1 (§4.1). */
final class FinalAggStageExec(val aggDef: FinalAggStageDef, qe0: QueryExec) extends StageExec(aggDef, qe0) {
  protected override def initialDop: Int = 1
  protected def addPipelines(t: TaskExec, taskDop: Int, now: Double): Unit =
    t.addPipeline(PipelineKind.FinalAgg, 1, now)(new FinalAggDriver(_, aggDef.agg))
  def kindName: String = "finalAgg"
}

/** Output stage: single coordinator-side task collecting result rows. */
final class OutputStageExec(val outDef: OutputStageDef, qe0: QueryExec) extends StageExec(outDef, qe0) {
  protected override def initialDop: Int = 1
  protected def addPipelines(t: TaskExec, taskDop: Int, now: Double): Unit =
    t.addPipeline(PipelineKind.Output, 1, now)(new OutputDriver(_))
  override def rowsOut: Long = qe.resultRows.size.toLong
  def kindName: String = "output"
}
