package repro.engine

import scala.collection.mutable.ArrayBuffer

/** A runtime parallelism-tuning request. `at` is the virtual time the request
  * fires (for scripted experiments); `to` is the requested DOP.
  */
sealed trait TuningAction {
  def at: Double
  def stageId: Int
  def to: Int

  /** The same request, re-timed to `at` or asking for DOP `to`. */
  def updated(at: Double = at, to: Int = to): TuningAction = this match {
    case t: SetTaskDop => t.copy(at = at, to = to)
    case t: SetStageDop => t.copy(at = at, to = to)
  }
}

/** Intra-task tuning (§4.3): set the driver count of the stage's tunable
  * pipeline in every live task ("AC Sn,a,b" in the paper's notation).
  */
final case class SetTaskDop(at: Double, stageId: Int, to: Int) extends TuningAction

/** Intra-stage tuning (§4.4/§4.5): set the task count of the stage
  * ("AP"/"RP" Sn,a,b). Joins go through DOP switching; shuffle stages
  * add/remove tasks directly.
  */
final case class SetStageDop(at: Double, stageId: Int, to: Int) extends TuningAction

/** Vet a tuning request before it reaches the dynamic scheduler. The paper's
  * DOP tuning request filter (§5.2) lives in `repro.core`; AcceptAll is used
  * by scripted experiments that bypass filtering.
  */
trait RequestGate {
  def vet(a: TuningAction, qe: QueryExec, now: Double): Either[String, Unit]
}

object AcceptAll extends RequestGate {
  def vet(a: TuningAction, qe: QueryExec, now: Double): Either[String, Unit] = Right(())
}

/** Auto-tuner hook invoked once per tick by the simulator (§5.4). */
trait TunerHook {
  def step(now: Double, qe: QueryExec, sched: DynamicScheduler): Unit
}

/** The dynamic scheduler (§3): spawns/terminates drivers and tasks at runtime,
  * breaking Presto's early binding of stage and task DOP.
  */
final class DynamicScheduler(val qe: QueryExec) {
  val log = ArrayBuffer[(Double, String)]()

  def note(now: Double, msg: String): Unit = log += ((now, msg))

  /** Apply `a` with its DOP clamped to at least 1. A request the structural
    * rules refuse is logged as IGNORED and changes nothing.
    */
  def apply(a: TuningAction, now: Double): Unit = {
    val (s, to) = (qe.stage(a.stageId), math.max(1, a.to))
    val clamped = a.updated(to = to)
    note(now, DynamicScheduler.refusal(clamped, qe).map(r => s"IGNORED $clamped: $r").getOrElse(
      clamped match {
        case _: SetTaskDop =>
          for (t <- s.liveTasks; p <- t.pipeline(s.tunableKind.get)) {
            while (p.activeCount < to) p.addDriver(now)
            var more = true
            while (p.activeCount > to && more) more = p.closeOne()
          }
          s"AC S${s.id} -> $to"
        case _: SetStageDop => s.setStageDop(to, now)
      }))
  }
}

object DynamicScheduler {

  /** Why `a` cannot be applied to the query as it stands, if it cannot. These
    * are the structural rules: the request filter rejects what they refuse,
    * and the scheduler ignores it. The rules every stage shares come first;
    * each stage kind states its own stage-DOP rules in `stageDopRefusal`.
    */
  def refusal(a: TuningAction, qe: QueryExec): Option[String] = {
    val (s, sid) = (qe.stage(a.stageId), a.stageId)
    if (qe.finished) Some("query already finished")
    else if (s.completed) Some(s"stage S$sid already finished")
    else if (a.to < 1) Some("DOP must be >= 1")
    else a match {
      case _: SetTaskDop => Option.when(s.tunableKind.isEmpty)(s"S$sid (${s.kindName}) has no tunable pipeline")
      case SetStageDop(_, _, to) => s.stageDopRefusal(to)
    }
  }
}
