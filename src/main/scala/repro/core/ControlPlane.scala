package repro.core

import scala.collection.mutable.ArrayBuffer
import repro.engine._

/** One tuning request and what the control plane made of it. `action` carries
  * the time it was requested; `from` is the stage's DOP on the action's axis
  * just before. An accepted stage-DOP request also keeps the what-if
  * prediction taken before it was applied.
  */
final case class Decision(action: TuningAction, from: Int, verdict: Either[String, Unit],
                          prediction: Option[Prediction]) {
  def at: Double = action.at
  def accepted: Boolean = verdict.isRight

  /** "APPLIED <script line>", or "REJECTED <script line>: <reason>". */
  def render: String = {
    val line = TuningScript.render(action, from)
    verdict.fold(reason => s"REJECTED $line: $reason", _ => s"APPLIED $line")
  }
}

/** The coordinator's control plane for one query (§5, Fig 18): the runtime
  * information collector feeds the what-if service, the request filter vets
  * each request on its estimates, and only then does the dynamic scheduler
  * act. Every request lands in one decision log.
  */
final class ControlPlane(val qe: QueryExec) {
  private val collector = new InfoCollector(qe)
  val predictor = new Predictor(qe, collector)
  private val filter = new RequestFilter(predictor)
  private var lastSample = -1e18

  val log = ArrayBuffer[Decision]()

  /** Sample the runtime counters, at most once per virtual second. */
  def sample(now: Double): Unit =
    if (now - lastSample >= 1.0) { collector.sample(now); lastSample = now }

  /** Vet `a`, apply it if accepted, and log the decision. */
  def request(a: TuningAction, sched: DynamicScheduler, now: Double): Unit = {
    val stamped = a.updated(at = now)
    val s = qe.stage(a.stageId)
    val from = if (a.isInstanceOf[SetTaskDop]) s.taskDop else s.stageDop
    val verdict = filter.vet(stamped, qe, now)
    val prediction = stamped match {
      case SetStageDop(_, sid, to) if verdict.isRight => predictor.predict(sid, to)
      case _ => None
    }
    verdict.foreach(_ => sched.apply(stamped, now))
    log += Decision(stamped, from, verdict, prediction)
  }
}

/** A tuner whose requests all go through one `ControlPlane`, built on its
  * first step and sampled at the start of every step.
  */
abstract class Tuner extends TunerHook {
  private var plane: ControlPlane = _

  /** Every request this tuner made, in order. */
  def log: Vector[Decision] = if (plane == null) Vector.empty else plane.log.toVector

  final def step(now: Double, qe: QueryExec, sched: DynamicScheduler): Unit = {
    if (plane == null) plane = new ControlPlane(qe)
    plane.sample(now)
    decide(now, plane, sched)
  }

  protected def decide(now: Double, plane: ControlPlane, sched: DynamicScheduler): Unit
}
