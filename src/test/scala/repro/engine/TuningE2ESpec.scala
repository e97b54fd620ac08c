package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.engine.Dsl._
import repro.engine.TestRig._

/** Runtime elasticity end-to-end: every DOP tuning mechanism of §4 must leave
  * query results identical to an untuned run — tuning changes *when* rows are
  * processed, never *which* rows.
  *
  * These suites run with dataScale=800 so queries take a few virtual seconds
  * and scripted actions genuinely fire mid-execution; every test asserts the
  * action actually happened.
  */
class TuningE2ESpec extends AnyFunSuite {
  private val c = CostModel.forTests.copy(dataScale = 800.0)
  private val orders = ordersT(300) // build side; scan done ≈ 1 s
  private val items = itemsT(300, 6) // 1800 probe rows; probe ≈ 3–7 s

  private def joinCount = agg(joinP(keep(scan(orders), "o_id"),
    keep(scan(items), "i_order", "i_val"), "o_id", "i_order"),
    Seq("i_order"), count("cnt"), sum("i_val", "sv"))

  private lazy val expected = canon(runPlan(Planner.plan(joinCount), c = c))

  private def joinIdOf(plan: QueryPlan): Int = plan.joinStages.head.id

  private def applied(res: SimResult, tag: String): Boolean =
    res.requestLog.exists(_._2.startsWith(tag))

  test("intra-task DOP increase mid-run preserves results (§4.3)") {
    val plan = Planner.plan(joinCount)
    val j = joinIdOf(plan)
    val res = runPlan(plan, script = Seq(SetTaskDop(1.0, j, 3)), c = c)
    assert(canon(res) == expected)
    assert(applied(res, s"AC S$j"))
    assert(res.duration > 1.0) // the action fired while running
  }

  test("intra-task DOP decrease mid-run preserves results and keeps one driver") {
    val plan = Planner.plan(joinCount)
    val j = joinIdOf(plan)
    val res = runPlan(plan, taskDop = 4,
      script = Seq(SetTaskDop(0.8, j, 1), SetTaskDop(1.2, j, 0)), c = c) // 0 clamps to 1
    assert(canon(res) == expected)
    assert(applied(res, s"AC S$j"))
  }

  test("scan-stage task DOP tuning preserves results") {
    val plan = Planner.plan(joinCount)
    val scanId = plan.scanStages.find(_.table.name == "items").get.id
    val res = runPlan(plan, script = Seq(SetTaskDop(0.6, scanId, 4)), c = c)
    assert(canon(res) == expected)
    assert(applied(res, s"AC S$scanId"))
  }

  test("partitioned join DOP switch (increase) preserves results (§4.5)") {
    val plan = Planner.plan(joinCount)
    val j = joinIdOf(plan)
    val res = runPlan(plan, stageDop = 2, script = Seq(SetStageDop(1.5, j, 4)), c = c)
    assert(canon(res) == expected)
    assert(res.switchLog.size == 1)
    val sw = res.switchLog.head
    assert(sw.fromDop == 2 && sw.toDop == 4)
    assert(sw.tShuffleDone >= sw.tRequest && sw.tDone >= sw.tShuffleDone)
  }

  test("partitioned join DOP switch (decrease) preserves results") {
    val plan = Planner.plan(joinCount)
    val j = joinIdOf(plan)
    val res = runPlan(plan, stageDop = 4, script = Seq(SetStageDop(1.2, j, 2)), c = c)
    assert(canon(res) == expected)
    assert(res.switchLog.exists(s => s.fromDop == 4 && s.toDop == 2))
  }

  test("two DOP switches in sequence preserve results") {
    val plan = Planner.plan(joinCount)
    val j = joinIdOf(plan)
    val res = runPlan(plan, stageDop = 1,
      script = Seq(SetStageDop(1.2, j, 2), SetStageDop(2.5, j, 3)), c = c)
    assert(canon(res) == expected)
    assert(res.switchLog.size == 2)
  }

  test("broadcast join task addition preserves results") {
    val q = agg(joinB(keep(scan(orders), "o_id"), keep(scan(items), "i_order"),
      "o_id", "i_order"), Nil, count("cnt"))
    val plan = Planner.plan(q)
    val j = plan.joinStages.head.id
    val res = runPlan(plan, script = Seq(SetStageDop(1.2, j, 3)), c = c)
    assert(canon(res) == Vector("1800"))
    assert(res.switchLog.nonEmpty)
  }

  test("broadcast join task removal preserves results") {
    val q = agg(joinB(keep(scan(orders), "o_id"), keep(scan(items), "i_order"),
      "o_id", "i_order"), Nil, count("cnt"))
    val plan = Planner.plan(q)
    val j = plan.joinStages.head.id
    val res = runPlan(plan, stageDop = 3, script = Seq(SetStageDop(1.2, j, 1)), c = c)
    assert(canon(res) == Vector("1800"))
    assert(applied(res, s"RP S$j"))
  }

  test("elastic shuffle stage DOP add/remove preserves results (§4.6)") {
    val plan = Planner.plan(joinCount, shuffleStageFor = Set("items"))
    val shuffleId = plan.stages.collectFirst { case s: ShuffleStageDef => s.id }.get
    val resUp = runPlan(plan, stageDop = 1, script = Seq(SetStageDop(0.8, shuffleId, 4)), c = c)
    assert(canon(resUp) == expected)
    assert(applied(resUp, s"AP S$shuffleId"))
    val resDown = runPlan(plan, overrides = Map(shuffleId -> 4),
      script = Seq(SetStageDop(0.8, shuffleId, 1)), c = c)
    assert(canon(resDown) == expected)
  }

  /** Apply `action(now, qe)` once, on the first tick `when(qe)` holds. */
  private def onceWhen(when: QueryExec => Boolean)(action: (Double, QueryExec) => TuningAction)
      : (TunerHook, () => Option[String]) = {
    var logged = Option.empty[String]
    val hook = new TunerHook {
      def step(now: Double, qe: QueryExec, sched: DynamicScheduler): Unit =
        if (logged.isEmpty && when(qe)) {
          sched.apply(action(now, qe), now)
          logged = Some(sched.log.last._2)
        }
    }
    (hook, () => logged)
  }

  test("adding a shuffle task after its input drained is refused, not left waiting") {
    val plan = Planner.plan(joinCount, shuffleStageFor = Set("items"))
    val shuffleId = plan.stages.collectFirst { case s: ShuffleStageDef => s.id }.get
    val scanId = plan.scanStages.find(_.table.name == "items").get.id
    val (hook, logged) = onceWhen(qe => qe.stage(scanId).completed && !qe.stage(shuffleId).completed)(
      (now, _) => SetStageDop(now, shuffleId, 3))
    val res = runPlan(plan, tuner = Some(hook), c = c)
    assert(logged().exists(_.contains("input already drained")), logged())
    assert(canon(res) == expected)
  }

  test("a shuffle task added after a broadcast RP sends no rows to the removed task") {
    val q = agg(joinB(keep(scan(orders), "o_id"), keep(scan(items), "i_order"),
      "o_id", "i_order"), Nil, count("cnt"))
    val plan = Planner.plan(q, shuffleStageFor = Set("items"))
    val j = plan.joinStages.head.id
    val shuffleId = plan.stages.collectFirst { case s: ShuffleStageDef => s.id }.get
    val scanId = plan.scanStages.find(_.table.name == "items").get.id
    val (hook, logged) = onceWhen(qe =>
      qe.stage(j).allTasks.exists(_.finished) && !qe.stage(scanId).completed)(
      (now, qe) => SetStageDop(now, shuffleId, qe.stage(shuffleId).stageDop + 1))
    val res = runPlan(plan, overrides = Map(j -> 3), script = Seq(SetStageDop(1.2, j, 1)),
      tuner = Some(hook), c = c)
    assert(applied(res, s"RP S$j"))
    assert(logged().exists(_.startsWith(s"AP S$shuffleId")), logged())
    assert(canon(res) == Vector("1800"))
  }

  test("DOP switch while the probe scan still streams keeps every probe row") {
    val plan = Planner.plan(joinCount)
    val j = joinIdOf(plan)
    val qe = new QueryExec(plan, cluster(c), c, 1, 1)
    val sim = new Simulator(qe, script = Seq(SetStageDop(1.3, j, 3)))
    val res = sim.run()
    assert(canon(res) == expected)
    assert(res.switchLog.size == 1)
    // probe upstream (items scan) was still streaming at switchover
    val itemsScan = plan.scanStages.find(_.table.name == "items").get.id
    assert(qe.stage(itemsScan).completedAt > res.switchLog.head.tDone - 1.0 ||
      qe.stage(itemsScan).completedAt > res.switchLog.head.tRequest)
  }

  test("switch request while build side still streams is deferred harmlessly") {
    val plan = Planner.plan(joinCount)
    val j = joinIdOf(plan)
    val res = runPlan(plan, script = Seq(SetStageDop(0.05, j, 3)), c = c)
    assert(canon(res) == expected)
    assert(res.requestLog.exists(_._2.contains("build side still streaming")))
  }

  test("stage DOP requests on fixed-DOP stages are ignored harmlessly") {
    val plan = Planner.plan(joinCount)
    val scanId = plan.scanStages.head.id
    val res = runPlan(plan, script = Seq(SetStageDop(1.0, scanId, 5), SetStageDop(1.1, 1, 4)), c = c)
    assert(canon(res) == expected)
    assert(res.requestLog.exists(_._2.contains("IGNORED")))
  }

  test("switch records expose shuffle and build phases (Table 2 shape)") {
    val plan = Planner.plan(joinCount)
    val j = joinIdOf(plan)
    val res = runPlan(plan, stageDop = 2, script = Seq(SetStageDop(1.5, j, 4)), c = c)
    val sw = res.switchLog.head
    assert(sw.shuffleSeconds > 0 && sw.buildSeconds > 0)
    assert(math.abs(sw.totalSeconds - (sw.shuffleSeconds + sw.buildSeconds)) < 1e-9)
  }

  test("intra-task tuning shortens execution (Fig 24 shape)") {
    val plan = Planner.plan(joinCount)
    val j = joinIdOf(plan)
    val slow = runPlan(Planner.plan(joinCount), c = c).duration
    val tuned = runPlan(plan, script = Seq(SetTaskDop(0.8, j, 4)), c = c).duration
    assert(tuned < slow)
  }

  test("stage DOP switching shortens execution (Fig 25 shape)") {
    val plan = Planner.plan(joinCount)
    val j = joinIdOf(plan)
    val slow = runPlan(Planner.plan(joinCount), c = c).duration
    val tuned = runPlan(plan, script = Seq(SetStageDop(1.2, j, 4)), c = c).duration
    assert(tuned < slow)
  }
}
