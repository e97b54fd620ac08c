package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.engine.Dsl._
import repro.engine.TestRig._
import repro.engine._
import repro.experiments.{ProgressScript, Trigger}

/** Predictor, request filter and the control plane over live simulations. */
class ControlPlaneSpec extends AnyFunSuite {
  private val c = CostModel.forTests.copy(dataScale = 800.0)
  private val orders = ordersT(300)
  private val items = itemsT(300, 6)

  private def query = agg(joinP(keep(scan(orders), "o_id"),
    keep(scan(items), "i_order", "i_val"), "o_id", "i_order"),
    Seq("i_order"), count("cnt"))

  /** Run the query, invoking `probe(now, qe, predictor, sched)` each tick on
    * a control plane sampled once per virtual second.
    */
  private def runWithHook(plan: QueryPlan, stageDop: Int = 1)(
      probe: (Double, QueryExec, Predictor, DynamicScheduler) => Unit): (SimResult, QueryExec) = {
    val qe = new QueryExec(plan, cluster(c), c, stageDop, 1)
    val hook = new Tuner {
      protected def decide(now: Double, plane: ControlPlane, sched: DynamicScheduler): Unit =
        probe(now, plane.qe, plane.predictor, sched)
    }
    (new Simulator(qe, tuner = Some(hook)).run(), qe)
  }

  test("scanStageFor walks the probe lineage to the driving scan") {
    val plan = Planner.plan(query)
    val qe = new QueryExec(plan, cluster(c), c, 1, 1)
    val pred = new Predictor(qe, new InfoCollector(qe))
    val join = plan.joinStages.head
    val scanId = plan.scanStages.find(_.table.name == "items").get.id
    assert(pred.scanStageFor(join.id).map(_.id).contains(scanId))
    assert(pred.scanStageFor(0).map(_.id).contains(scanId)) // from the output stage too
  }

  test("remaining time prediction converges toward actual remaining time") {
    val plan = Planner.plan(query)
    val join = plan.joinStages.head.id
    var sampled = Option.empty[(Double, Double)] // (time, predicted remaining)
    val (res, _) = runWithHook(plan) { (now, qe2, pred, _) =>
      if (sampled.isEmpty && now > 2.0)
        pred.remainingSeconds(join, window = 2.0).foreach(t => sampled = Some((now, t)))
    }
    val (at, tRemain) = sampled.get
    val actual = res.duration - at
    assert(tRemain > 0)
    // the V_remain/R_consume estimate should be within 2x of truth mid-run
    assert(tRemain < actual * 2.5 && tRemain > actual * 0.3,
      s"predicted $tRemain vs actual $actual")
  }

  test("buildSeconds estimate decreases with target DOP and tracks cache size") {
    val plan = Planner.plan(query)
    var checked = false
    runWithHook(plan) { (now, qe2, pred, _) =>
      val j = qe2.joinStages.head
      if (!checked && j.buildUpstream.completed && j.buildCacheRows > 0) {
        checked = true
        val b2 = pred.buildSeconds(j, 2)
        val b4 = pred.buildSeconds(j, 4)
        assert(b2 > 0 && b4 > 0 && b4 < b2)
      }
    }
    assert(checked)
  }

  test("predict applies the (T_remain − T_build)/n_f + T_build formula") {
    val plan = Planner.plan(query)
    var pr = Option.empty[Prediction]
    runWithHook(plan, stageDop = 2) { (now, qe2, pred, _) =>
      val j = qe2.joinStages.head
      if (pr.isEmpty && now > 2.0 && j.buildUpstream.completed)
        pr = pred.predict(j.id, 4, window = 2.0)
    }
    val p = pr.get
    assert(p.nfRequested == 2.0)
    assert(p.nfGranted >= 1.0 && p.nfGranted <= 2.0)
    assert(p.tTuning > 0) // join stages pay the rebuild
    val expected = math.max(0.0, p.tRemainNow - p.tTuning) / p.nfGranted + p.tTuning
    assert(math.abs(p.tPredicted - expected) < 1e-9)
    assert(p.tPredicted < p.tRemainNow) // what-if says: scaling up helps
  }

  test("what-if after a shuffle-stage RP starts from the tasks still running") {
    val plan = Planner.plan(query, shuffleStageFor = Set("items"))
    val sh = plan.stages.collectFirst { case s: ShuffleStageDef => s.id }.get
    val qe = new QueryExec(plan, cluster(c), c, 1, 1, Map(sh -> 4))
    var seen = Option.empty[(Int, Prediction)] // (stage DOP, prediction) once a task has ended
    val hook = new Tuner {
      protected def decide(now: Double, plane: ControlPlane, sched: DynamicScheduler): Unit = {
        val s = plane.qe.stage(sh)
        if (seen.isEmpty && s.activeGroup.tasks.exists(_.finished) && !s.completed)
          seen = plane.predictor.predict(sh, 4).map(s.stageDop -> _)
      }
    }
    new Simulator(qe, script = Seq(SetStageDop(0.8, sh, 1)), tuner = Some(hook)).run()
    val (dop, p) = seen.get
    assert(dop < 4)
    assert(p.nfRequested == 4.0 / dop)
  }

  test("maxNf shrinks as the cluster busies and never goes below 1") {
    val plan = Planner.plan(query)
    var vals = Vector.empty[Double]
    runWithHook(plan) { (now, qe2, pred, _) =>
      if (now > 0.5 && vals.size < 3) vals :+= pred.maxNf(qe2.joinStages.head.id)
    }
    assert(vals.nonEmpty && vals.forall(_ >= 1.0))
  }

  // ------------------------------------------------------------ request filter

  test("filter rejects requests for finished stages and queries") {
    val plan = Planner.plan(query)
    val qe = new QueryExec(plan, cluster(c), c, 1, 1)
    val res = new Simulator(qe).run()
    val pred = new Predictor(qe, res.collector)
    val f = new RequestFilter(pred)
    assert(f.vet(SetTaskDop(0, plan.joinStages.head.id, 2), qe, qe.now).isLeft)
  }

  test("filter rejects invalid DOPs and fixed-DOP stages") {
    val plan = Planner.plan(query)
    val qe = new QueryExec(plan, cluster(c), c, 1, 1)
    qe.init()
    val f = new RequestFilter(new Predictor(qe, new InfoCollector(qe)))
    val join = plan.joinStages.head.id
    assert(f.vet(SetTaskDop(0, join, 0), qe, 0).isLeft) // dop < 1
    assert(f.vet(SetStageDop(0, 1, 4), qe, 0).isLeft) // final agg: fixed
    assert(f.vet(SetStageDop(0, plan.scanStages.head.id, 4), qe, 0).isLeft) // scan: fixed
    assert(f.vet(SetTaskDop(0, join, 2), qe, 0).isRight) // task DOP is fine
  }

  test("filter rejects join switches while the build side streams") {
    val plan = Planner.plan(query)
    val qe = new QueryExec(plan, cluster(c), c, 1, 1)
    qe.init()
    val f = new RequestFilter(new Predictor(qe, new InfoCollector(qe)))
    val vet = f.vet(SetStageDop(0, plan.joinStages.head.id, 3), qe, 0)
    assert(vet.isLeft && vet.left.exists(_.contains("build side")))
  }

  test("filter rejects un-amortizable switches near the end (T_remain < T_build)") {
    val plan = Planner.plan(query)
    val join = plan.joinStages.head.id
    var rejected = Option.empty[String]
    val (res, _) = runWithHook(plan) { (now, qe2, pred, _) =>
      val scanId = pred.scanStageFor(join).get.id
      val prog = qe2.stage(scanId).asInstanceOf[ScanStageExec].progress
      if (rejected.isEmpty && prog > 0.97) {
        val f = new RequestFilter(pred)
        f.vet(SetStageDop(now, join, 4), qe2, now) match {
          case Left(r) => rejected = Some(r)
          case Right(()) => ()
        }
      }
    }
    assert(rejected.exists(_.contains("not amortizable")), s"got $rejected")
  }

  // ------------------------------------------------------------ one request path

  /** Run `tuner`, checking that each decision it logs carries the DOP its
    * stage had, on the decision's axis, just before the tuner stepped.
    */
  private def runLogged(tuner: Tuner, plan: QueryPlan, taskDop: Int): Vector[Decision] = {
    val qe = new QueryExec(plan, cluster(c), c, 1, taskDop)
    val hook = new TunerHook {
      def step(now: Double, q: QueryExec, sched: DynamicScheduler): Unit = {
        val before = q.stages.map(s => s.id -> (s.taskDop, s.stageDop)).toMap
        val seen = tuner.log.size
        tuner.step(now, q, sched)
        tuner.log.drop(seen).foreach { d =>
          val (td, sd) = before(d.action.stageId)
          val real = if (d.action.isInstanceOf[SetTaskDop]) td else sd
          assert(d.from == real, s"${d.render}: stage DOP was $real")
        }
      }
    }
    new Simulator(qe, tuner = Some(hook), maxVirtualSeconds = 20000).run()
    tuner.log
  }

  test("scripted and auto-tuned requests, RP included, are vetted and logged with their from-DOP") {
    val plan = Planner.plan(query)
    val join = plan.joinStages.head.id
    val scanId = plan.scanStages.find(_.table.name == "items").get.id
    val script = runLogged(new ProgressScript(Seq(
      Trigger(scanId, 0.2, SetTaskDop(0, join, 2)),
      Trigger(scanId, 0.4, SetStageDop(0, join, 2)),
      Trigger(scanId, 0.6, SetTaskDop(0, join, 3)))), plan, taskDop = 1)
    assert(script.map(d => (d.from, d.action.to, d.accepted)) ==
      Vector((1, 2, true), (1, 2, true), (2, 3, true)))

    val untuned = new Simulator(new QueryExec(plan, cluster(c), c, 1, 4)).run().duration
    val tuner = new AutoTuner(Map(scanId -> untuned * 6), period = 1.0)
    val auto = runLogged(tuner, plan, taskDop = 4)
    val reductions = auto.filter(d => d.action.to < d.from)
    assert(reductions.nonEmpty && reductions.forall(_.accepted), auto.map(_.render))
    assert(tuner.decisions.exists(_._2.startsWith("APPLIED RP")))

    (script ++ auto).foreach { d =>
      assert(!d.render.contains("?"), d.render)
      val line = TuningScript.render(d.action, d.from)
      if (!line.startsWith("RP")) assert(TuningScript.parseLine(line) == d.action, line)
    }
  }
}
