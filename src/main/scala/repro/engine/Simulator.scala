package repro.engine

import scala.collection.mutable
import repro.engine.Data.Row

/** Result of a simulated query run. */
final case class SimResult(
    duration: Double,
    rows: Vector[Row],
    schema: Schema,
    collector: InfoCollector,
    switchLog: Vector[SwitchRecord],
    requestLog: Vector[(Double, String)],
    busyCoreSeconds: Double,
    /** Integral of live (allocated) drivers over time — the cloud-cost proxy
      * the auto-tuner minimizes (§6.5.2): you pay for reserved parallelism,
      * busy or not.
      */
    allocatedDriverSeconds: Double,
)

/** Discrete-time executor: advances the virtual clock tick by tick, applying
  * scripted tuning actions and the auto-tuner, fair-sharing node cores over
  * runnable drivers, and running housekeeping (end propagation, rebuild
  * phases, elastic buffer maintenance, metric sampling).
  *
  * Deterministic: same plan + data + script ⇒ identical results and timings.
  */
final class Simulator(
    val qe: QueryExec,
    script: Seq[TuningAction] = Nil,
    gate: RequestGate = AcceptAll,
    tuner: Option[TunerHook] = None,
    maxVirtualSeconds: Double = 50000.0,
) {
  val sched = new DynamicScheduler(qe)
  val collector = new InfoCollector(qe)

  private def applyAction(a: TuningAction): Unit = gate.vet(a, qe, qe.now) match {
    case Left(reason) => sched.note(qe.now, s"REJECTED $a: $reason")
    case Right(()) => sched.apply(a, qe.now)
  }

  def run(): SimResult = {
    if (!qe.initialized) qe.init()
    val pending = mutable.Queue(script.sortBy(_.at): _*)
    val dt = qe.costs.tickSeconds
    var lastElastic = 0.0
    var lastSample = -1e9
    var lastSig = -1L
    var stalledTicks = 0
    var allocSeconds = 0.0
    collector.sample(qe.now)
    while (!qe.finished && qe.now < maxVirtualSeconds) {
      while (pending.nonEmpty && pending.head.at <= qe.now) applyAction(pending.dequeue())
      tuner.foreach(_.step(qe.now, qe, sched))
      qe.cluster.resetTick(dt)
      qe.cluster.tick(dt)
      qe.housekeeping()
      allocSeconds += qe.liveDriverCount * dt
      if (qe.now - lastElastic >= qe.costs.elasticWindow) {
        qe.elasticTick(); lastElastic = qe.now
      }
      if (qe.now - lastSample >= 1.0) {
        collector.sample(qe.now); lastSample = qe.now
      }
      val sig = qe.progressSignature
      if (sig == lastSig) {
        stalledTicks += 1
        if (stalledTicks > 20000)
          throw new IllegalStateException(
            s"simulator stalled at t=${qe.now}; state:\n${qe.dump}")
      } else { stalledTicks = 0; lastSig = sig }
      qe.now += dt
    }
    if (!qe.finished)
      throw new IllegalStateException(
        s"query did not finish within $maxVirtualSeconds virtual seconds; state:\n${qe.dump}")
    collector.sample(qe.now)
    SimResult(qe.now, qe.results, qe.plan.resultSchema, collector,
      qe.joinStages.flatMap(_.switchLog).toVector, sched.log.toVector,
      qe.cluster.busyCoreSeconds, allocSeconds)
  }
}
