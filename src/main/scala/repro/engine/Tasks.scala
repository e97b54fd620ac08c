package repro.engine

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Pipeline kinds inside a task (paper Fig 6/7). */
sealed trait PipelineKind
object PipelineKind {
  case object Scan extends PipelineKind // table scan (+fused filter/project/partial agg)
  case object Feed extends PipelineKind // exchange → local exchange sink (build side)
  case object Build extends PipelineKind // local exchange source → hash build
  case object Probe extends PipelineKind // exchange → probe (+fused post ops) → task output
  case object Pipe extends PipelineKind // exchange → task output (shuffle stage)
  case object FinalAgg extends PipelineKind
  case object Output extends PipelineKind
}

/** A pipeline: an operator-factory able to spawn drivers at runtime — the
  * intra-task DOP tuning surface (§4.3).
  */
final class PipelineExec(val kind: PipelineKind, val task: TaskExec,
                         factory: () => DriverExec) {
  val drivers = ArrayBuffer[DriverExec]()

  def addDriver(now: Double): DriverExec = {
    val d = factory()
    d.activeAfter = now + task.qe.costs.restRequestSeconds
    drivers += d
    task.node.register(d)
    d
  }

  /** End-signal one driver (decrease task DOP, §4.3); keeps at least one. */
  def closeOne(): Boolean = {
    if (activeCount <= 1) false
    else drivers.find(d => !d.done && !d.closing) match {
      case Some(d) => d.closing = true; true
      case None => false
    }
  }

  def activeCount: Int = drivers.count(d => !d.done && !d.closing)
  def allFinished: Boolean = drivers.forall(_.done)

  def liveCount: Int = {
    var n = 0
    var i = 0
    while (i < drivers.length) { if (!drivers(i).done) n += 1; i += 1 }
    n
  }
}

/** A task group (§4.5): the set of tasks a partitioned hash join's hash table
  * is distributed over. DOP switching creates a new group and retires the old.
  * Non-join stages have a single group for their whole life.
  */
final class TaskGroup(val id: Int) {
  val tasks = ArrayBuffer[TaskExec]()
  def dop: Int = tasks.size
}

/** A task: the unit of distributed execution, mapped to one node (§2). */
final class TaskExec(val stage: StageExec, val group: TaskGroup, val seq: Int, val node: Node) {
  val qe: QueryExec = stage.qe
  private val costs = qe.costs

  val outputBuffer = new OutputBuffer(node, stage.defn.out.routing, stage.defn.out.cached)

  /** Receive queues for the rows this task processes (a join's probe side). */
  val inputQueues = ArrayBuffer[ElasticQueue]()
  /** Receive queues for a join's build side. */
  val buildQueues = ArrayBuffer[ElasticQueue]()
  private val queueByProducer = mutable.HashMap[TaskExec, ElasticQueue]()

  /** Local exchange between the feed and build pipelines (join tasks only). */
  var localExchange: ElasticQueue = _
  var hashTable: JoinHashTable = _
  var hashReady = false

  val pipelines = ArrayBuffer[PipelineExec]()
  var finished = false

  def pipeline(kind: PipelineKind): Option[PipelineExec] = pipelines.find(_.kind == kind)

  def addPipeline(kind: PipelineKind, nDrivers: Int, now: Double)(factory: TaskExec => DriverExec): PipelineExec = {
    val p = new PipelineExec(kind, this, () => factory(this))
    pipelines += p
    (0 until nDrivers).foreach(_ => p.addDriver(now))
    p
  }

  /** Create the consumer-side elastic receive queue for rows from `producer`:
    * a build queue if `producer` is this join's build side, else an input queue.
    */
  def addConsumerQueue(producer: TaskExec): ElasticQueue = {
    val q = new ElasticQueue(producer.node, node, costs, () => producer.stage.rowBytesAvg)
    val build = stage match {
      case j: JoinStageExec => producer.stage eq j.buildUpstream
      case _ => false
    }
    (if (build) buildQueues else inputQueues) += q
    queueByProducer(producer) = q
    q
  }

  def queueOf(producer: TaskExec): Option[ElasticQueue] = queueByProducer.get(producer)

  /** Every input queue is end-marked: the task was end-signalled (§4.4), or
    * all its producers finished.
    */
  def inputClosed: Boolean = inputQueues.nonEmpty && inputQueues.forall(_.closed)

  def allConsumerQueues: Iterator[ElasticQueue] =
    buildQueues.iterator ++ inputQueues.iterator ++ Option(localExchange).iterator

  /** Turn-up counter of the task (§5.1): total buffer capacity increases. */
  def turnUps: Int = (inputQueues.iterator ++ buildQueues.iterator).map(_.turnUps).sum

  def driverCount: Int = {
    var n = 0
    var i = 0
    while (i < pipelines.length) { n += pipelines(i).liveCount; i += 1 }
    n
  }

  def housekeeping(now: Double): Unit = {
    if (finished) return
    if (hashTable != null) {
      // end-page relay into the local exchange once all feed drivers are done;
      // rebuilt groups have no feed drivers — their LE is closed by the
      // RebuildJob after staging delivery, never here
      pipeline(PipelineKind.Feed) match {
        case Some(feed) if feed.drivers.nonEmpty && feed.allFinished && !localExchange.closed =>
          localExchange.markEnd()
        case _ => ()
      }
      if (!hashReady) pipeline(PipelineKind.Build) match {
        case Some(b) if b.drivers.nonEmpty && b.allFinished => hashReady = true
        case _ => ()
      }
    }
    if (pipelines.forall(_.allFinished) && pipelines.nonEmpty) {
      outputBuffer.markEnd()
      finished = true
    }
  }

  def label: String = s"task${stage.id}_${group.id}_$seq"
}
