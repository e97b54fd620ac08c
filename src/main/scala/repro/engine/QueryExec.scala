package repro.engine

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import repro.engine.Data.Row

/** Instantiates a QueryPlan on a cluster and owns the runtime topology:
  * stage executors, task wiring (which producer buffer feeds which consumer
  * queue) and per-tick housekeeping (end-page propagation, completion).
  */
final class QueryExec(val plan: QueryPlan, val cluster: Cluster, val costs: CostModel,
                      val stageDop0: Int = 1, val taskDop0: Int = 1,
                      val initialStageDops: Map[Int, Int] = Map.empty) {

  /** Initial stage DOP, with per-stage overrides (experiment setups). */
  def stageDopFor(id: Int): Int = math.max(1, initialStageDops.getOrElse(id, stageDop0))

  /** Virtual clock, advanced by the Simulator. */
  var now: Double = 0.0

  val resultRows = ArrayBuffer[Row]()

  private val execs: mutable.LinkedHashMap[Int, StageExec] = {
    val m = mutable.LinkedHashMap[Int, StageExec]()
    plan.stages.foreach { d =>
      m(d.id) = d match {
        case s: ScanStageDef => new ScanStageExec(s, this)
        case j: JoinStageDef => new JoinStageExec(j, this)
        case p: ShuffleStageDef => new PipeStageExec(p, this)
        case f: FinalAggStageDef => new FinalAggStageExec(f, this)
        case o: OutputStageDef => new OutputStageExec(o, this)
      }
    }
    m
  }

  def stage(id: Int): StageExec = execs(id)
  val stages: Vector[StageExec] = execs.values.toVector
  val scanStages: Vector[ScanStageExec] = stages.collect { case s: ScanStageExec => s }
  val joinStages: Vector[JoinStageExec] = stages.collect { case j: JoinStageExec => j }
  def outputStage: OutputStageExec = stage(0).asInstanceOf[OutputStageExec]

  /** Children-before-parents order, so end pages propagate bottom-up in one
    * housekeeping pass per tick.
    */
  val topoOrder: Vector[StageExec] = {
    val order = ArrayBuffer[Int]()
    def visit(id: Int): Unit = {
      if (!order.contains(id)) {
        plan.childrenOf(id).foreach(visit)
        order += id
      }
    }
    visit(0)
    order.toVector.map(execs)
  }

  var initialized = false

  /** Create all initial tasks (bottom-up), then wire every producer's output
    * buffer to its consumers' freshly created elastic receive queues.
    */
  def init(): Unit = {
    require(!initialized, "init() called twice")
    topoOrder.foreach(_.initTasks(now))
    stages.foreach(_.allTasks.foreach(wireProducer))
    initialized = true
  }

  /** Point `p`'s output buffer at the consuming stage's active group. Also
    * used when tasks are created at runtime (intra-stage DOP increase).
    */
  def wireProducer(p: TaskExec): Unit = plan.parentOf(p.stage.id).foreach { pid =>
    p.outputBuffer.setTargets(stage(pid).activeGroup.tasks.sortBy(_.seq).toVector.map { t =>
      val ended = t.inputClosed
      val q = t.addConsumerQueue(p)
      if (ended) q.markEnd() // an end-signalled task takes no new rows
      q
    })
  }

  def housekeeping(): Unit = topoOrder.foreach(_.housekeeping(now))

  /** Periodic consumer-side buffer maintenance (paper: every 500 ms). */
  def elasticTick(): Unit =
    stages.foreach(_.allTasks.foreach(_.allConsumerQueues.foreach(_.resizeToRate())))

  def finished: Boolean = outputStage.completed
  def results: Vector[Row] = resultRows.toVector

  /** Monotone progress signature used by the simulator's stall detector. */
  def progressSignature: Long = {
    var sig = 0L
    var i = 0
    while (i < stages.length) {
      val s = stages(i)
      sig += s.rowsOut
      sig += s.finishedTaskCount
      s match { case sc: ScanStageExec => sig += sc.scanned; case _ => () }
      i += 1
    }
    sig + resultRows.size
  }

  /** Drivers allocated across every stage: the simulator's cost integrand. */
  def liveDriverCount: Int = {
    var n = 0
    var i = 0
    while (i < stages.length) { n += stages(i).liveDriverCount; i += 1 }
    n
  }

  def dump: String = stages.map { s =>
    val tasks = s.allTasks.map { t =>
      val qs = t.allConsumerQueues.map(q => s"${q.size}/${q.capacity}${if (q.closed) "E" else ""}").mkString(",")
      s"  ${t.label}@n${t.node.id} fin=${t.finished} drv=${t.driverCount} out=${t.outputBuffer.rowsEmitted} q[$qs]"
    }.mkString("\n")
    s"S${s.id} ${s.kindName} dop=${s.stageDop} completed=${s.completed} rowsOut=${s.rowsOut}\n$tasks"
  }.mkString("\n")
}
