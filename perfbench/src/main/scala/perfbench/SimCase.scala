package perfbench

import scala.collection.mutable
import repro.core.AutoTuner
import repro.engine._
import repro.experiments.ProgressScript

/** A tuner plus how to count the requests it sent through the request filter. */
final case class Tuning(hook: TunerHook, requests: () => Requests)

/** Tuning requests vetted by `RequestFilter`, and how many it accepted. */
final case class Requests(vetted: Int, accepted: Int)

object Requests {
  val none: Requests = Requests(0, 0)

  def of(p: ProgressScript): Requests = Requests(p.log.size, p.accepted.size)

  /** `AutoTuner` applies "RP" reductions without vetting them. */
  def of(a: AutoTuner): Requests = {
    val vetted = a.decisions.map(_._2).filterNot(_.startsWith("APPLIED RP"))
    Requests(vetted.size, vetted.count(_.startsWith("APPLIED")))
  }
}

/** What one simulated query produced. */
final case class Outcome(res: SimResult, requests: Requests) {
  def ticks(c: SimCase): Long = math.round(res.duration / c.costs.tickSeconds)
}

/** One simulated query. The fields let the benchmark call each layer in
  * turn; `whole`, where set, runs the query as its timed op does, through the
  * `Experiments` function that holds the paper's setup. `sql` is the
  * equivalent query, for the reference result and the oracle.
  */
final case class SimCase(
    name: String,
    sql: String,
    costs: CostModel,
    plan: () => QueryPlan,
    stageDop: Int,
    taskDop: Int,
    overrides: QueryPlan => Map[Int, Int] = _ => Map.empty,
    script: QueryPlan => Seq[TuningAction] = _ => Nil,
    tuner: QueryPlan => Option[Tuning] = _ => None,
    maxTime: Double = 50000.0,
    whole: Option[() => Outcome] = None,
) {

  /** The timed op's engine part. */
  def runWhole(): Outcome = whole.fold(Layers.run(this, Tracer.off))(_())
}

/** Runs a `SimCase` layer by layer, recording one span per public call. */
object Layers {

  /** Planner, then `new QueryExec` + `init`, then an untraced `Simulator.run`. */
  def run(c: SimCase, tr: Tracer): Outcome = {
    val (sim, tuning) = prepare(c, tr)
    Outcome(tr.span(tr.id("engine.run"))(sim.run()), requests(tuning))
  }

  private def requests(tuning: Option[Tuning]): Requests = tuning.fold(Requests.none)(_.requests())

  /** Plans the query and builds its initialised `QueryExec`, tuner and `Simulator`. */
  private def prepare(c: SimCase, tr: Tracer): (Simulator, Option[Tuning]) = {
    val plan = tr.span(tr.id("planner.plan"))(c.plan())
    val qe = tr.span(tr.id("engine.init")) {
      val q = new QueryExec(plan, Cluster.default(c.costs), c.costs, c.stageDop, c.taskDop,
        c.overrides(plan))
      q.init()
      q
    }
    val tuning = c.tuner(plan)
    (new Simulator(qe, c.script(plan), AcceptAll, tuning.map(_.hook), c.maxTime), tuning)
  }

  /** Steps the query through the same public calls, in the same order, as
    * `Simulator.run`, with a span around each. Returns the outcome and the
    * number of ticks stepped.
    */
  def traced(c: SimCase, tr: Tracer): (Outcome, Long) = {
    val tuneId = tr.id("core.tuner_step"); val resetId = tr.id("engine.reset")
    val tickId = tr.id("engine.tick"); val houseId = tr.id("engine.housekeeping")
    val bookId = tr.id("engine.bookkeeping"); val elasticId = tr.id("engine.elastic")
    val sampleId = tr.id("metrics.sample")

    val (sim, tuning) = prepare(c, tr)
    val qe = sim.qe
    val tuner = tuning.map(_.hook)
    val sched = sim.sched
    val collector = sim.collector

    val loop = tr.begin(tr.id("engine.loop"))
    val pending = mutable.Queue(c.script(qe.plan).sortBy(_.at): _*)
    val dt = qe.costs.tickSeconds
    var lastElastic = 0.0
    var lastSample = -1e9
    var lastSig = -1L
    var stalledTicks = 0
    var allocSeconds = 0.0
    var ticks = 0L
    tr.span(sampleId)(collector.sample(qe.now))
    while (!qe.finished && qe.now < c.maxTime) {
      while (pending.nonEmpty && pending.head.at <= qe.now) {
        val a = pending.dequeue()
        AcceptAll.vet(a, qe, qe.now) match {
          case Left(reason) => sched.note(qe.now, s"REJECTED $a: $reason")
          case Right(()) => sched.apply(a, qe.now)
        }
      }
      tuner.foreach(t => tr.span(tuneId)(t.step(qe.now, qe, sched)))
      tr.span(resetId)(qe.cluster.resetTick(dt))
      tr.span(tickId)(qe.cluster.tick(dt))
      tr.span(houseId)(qe.housekeeping())
      allocSeconds += tr.span(bookId)(qe.stages.iterator.map(_.liveTasks.map(_.driverCount).sum).sum) * dt
      if (qe.now - lastElastic >= qe.costs.elasticWindow) {
        tr.span(elasticId)(qe.elasticTick()); lastElastic = qe.now
      }
      if (qe.now - lastSample >= 1.0) {
        tr.span(sampleId)(collector.sample(qe.now)); lastSample = qe.now
      }
      val sig = tr.span(bookId)(qe.progressSignature)
      if (sig == lastSig) {
        stalledTicks += 1
        if (stalledTicks > 20000)
          throw new IllegalStateException(s"${c.name}: stalled at t=${qe.now}")
      } else { stalledTicks = 0; lastSig = sig }
      qe.now += dt
      ticks += 1
    }
    if (!qe.finished)
      throw new IllegalStateException(s"${c.name}: did not finish within ${c.maxTime} virtual seconds")
    tr.span(sampleId)(collector.sample(qe.now))
    tr.end(loop)
    val res = SimResult(qe.now, qe.results, qe.plan.resultSchema, collector,
      qe.joinStages.flatMap(_.switchLog).toVector, sched.log.toVector,
      qe.cluster.busyCoreSeconds, allocSeconds)
    (Outcome(res, requests(tuning)), ticks)
  }

  /** Virtual duration, rows and switch log equal, bit for bit. */
  def sameRun(a: SimResult, b: SimResult): Boolean =
    a.duration == b.duration && a.switchLog == b.switchLog &&
      a.rows.size == b.rows.size && a.rows.lazyZip(b.rows).forall(_ sameElements _)
}
