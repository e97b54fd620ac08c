package repro.core

import scala.collection.mutable
import repro.engine._

/** The DOP auto-tuner (§5.4), in DOP-monitor mode: periodically tracks the
  * execution progress of each constrained stage and incrementally adjusts DOP
  * to meet the query's latency constraints while minimizing resource usage.
  *
  * A constraint maps a stage id to an absolute virtual-time deadline by which
  * that stage's driving table scan must finish (the paper constrains the scan
  * stages of each "DOP tuning unit"). Each period the tuner compares
  * `T_remain = V_remain / R_consume` with the time left:
  *
  *  - behind schedule → raise parallelism of the unit's tunable stage: first
  *    intra-task DOP (cheap, scheduling-only), then intra-stage DOP (join DOP
  *    switch, which the request filter rejects when the rebuild cannot be
  *    amortized);
  *  - well ahead of schedule → reduce intra-task DOP ("RP": scheduling-only,
  *    §6.5.2) to release resources.
  *
  * Every request, reductions included, goes through the query's
  * `ControlPlane`.
  *
  * Deadlines can be changed mid-query (`setDeadline`), mirroring the paper's
  * Q3 experiment where a new constraint arrives via the UI at ~150 s.
  */
final class AutoTuner(initialDeadlines: Map[Int, Double], period: Double = 5.0) extends Tuner {
  import AutoTuner._

  private val deadlines = mutable.LinkedHashMap[Int, Double](initialDeadlines.toSeq: _*)
  private var lastAct = -1e18

  /** The decision log as (time, rendered decision), for experiments and tests. */
  def decisions: Vector[(Double, String)] = log.map(d => (d.at, d.render))

  def setDeadline(stageId: Int, deadline: Double): Unit = deadlines(stageId) = deadline

  protected def decide(now: Double, plane: ControlPlane, sched: DynamicScheduler): Unit = {
    if (now - lastAct < period) return
    lastAct = now
    val (qe, predictor) = (plane.qe, plane.predictor)
    for ((sid, deadline) <- deadlines; scan <- predictor.scanStageFor(sid)
         if !qe.stage(sid).completed && !scan.completed;
         tRemain <- predictor.remainingSeconds(sid); // None: no consumption rate measured yet
         t <- targetFor(qe, sid)) {
      val timeLeft = math.max(deadline - now, 1e-3)
      // the unit's scan may itself be the floor — its pipeline is stateless,
      // so raising its driver count is scheduling-only
      if (tRemain > timeLeft * BehindFactor)
        Seq(t, scan).foreach(speedUp(plane, sched, _, tRemain / timeLeft, now))
      else if (tRemain < timeLeft * AheadFactor)
        Seq(t, scan).foreach(slowDown(plane, sched, _, tRemain, timeLeft, now))
    }
  }

  /** The stage whose DOP this unit tunes: the constrained stage itself if
    * tunable, else the nearest tunable ancestor (join preferred over shuffle).
    */
  private def targetFor(qe: QueryExec, sid: Int): Option[StageExec] = {
    def ancestors(id: Int): List[StageExec] = qe.plan.parentOf(id) match {
      case Some(pid) => qe.stage(pid) :: ancestors(pid)
      case None => Nil
    }
    val s = qe.stage(sid)
    val chain = s :: ancestors(sid)
    val tunable = chain.filter(x => x.tunableKind.isDefined && !x.completed)
    tunable.collectFirst { case j: JoinStageExec => j }.orElse(tunable.headOption)
  }

  /** Drivers are threads: more of them than the node has cores is waste. */
  private def taskDopCap(t: StageExec): Int =
    math.min(MaxTaskDop, t.liveTasks.map(_.node.cores).minOption.getOrElse(MaxTaskDop))

  private def speedUp(plane: ControlPlane, sched: DynamicScheduler, t: StageExec,
                      factor: Double, now: Double): Unit = {
    val curTd = t.taskDop
    val cap = taskDopCap(t)
    if (curTd < cap) {
      val newTd = math.min(cap, math.max(curTd + 1, math.ceil(curTd * factor).toInt))
      plane.request(SetTaskDop(now, t.id, newTd), sched, now)
    } else t match {
      case _: JoinStageExec | _: PipeStageExec =>
        val cur = t.stageDop
        val newSd = math.min(MaxStageDop, math.max(cur + 1, math.ceil(cur * factor).toInt))
        if (newSd > cur) plane.request(SetStageDop(now, t.id, newSd), sched, now)
      case _ => ()
    }
  }

  /** Reduction ("RP"): intra-task DOP only, so it costs scheduling alone. */
  private def slowDown(plane: ControlPlane, sched: DynamicScheduler, t: StageExec,
                       tRemain: Double, timeLeft: Double, now: Double): Unit = {
    val curTd = t.taskDop
    val newTd = math.max(1, math.ceil(curTd * tRemain / (timeLeft * 0.9)).toInt)
    if (newTd < curTd) plane.request(SetTaskDop(now, t.id, newTd), sched, now)
  }
}

object AutoTuner {
  val MaxTaskDop = 8
  val MaxStageDop = 10
  /** Reduce parallelism when T_remain is below this share of the time left. */
  val AheadFactor = 0.55
  /** Raise parallelism when T_remain exceeds this multiple of the time left. */
  val BehindFactor = 1.05
}
