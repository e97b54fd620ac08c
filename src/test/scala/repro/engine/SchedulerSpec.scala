package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.engine.Dsl._
import repro.engine.TestRig._

/** DynamicScheduler behaviours not covered by the E2E tuning suite. */
class SchedulerSpec extends AnyFunSuite {
  private val c = CostModel.forTests.copy(dataScale = 800.0)
  private val orders = ordersT(200)
  private val items = itemsT(200, 5)

  private def query = agg(joinP(keep(scan(orders), "o_id"),
    keep(scan(items), "i_order"), "o_id", "i_order"), Nil, count("cnt"))

  /** Run until `at`, apply `f`, then finish; returns (qe, result). */
  private def withMidRun(plan: QueryPlan, stageDop: Int = 1, taskDop: Int = 1)(
      f: (QueryExec, DynamicScheduler, Double) => Unit): (QueryExec, SimResult) = {
    val qe = new QueryExec(plan, cluster(c), c, stageDop, taskDop)
    var fired = false
    val hook = new TunerHook {
      def step(now: Double, q: QueryExec, sched: DynamicScheduler): Unit =
        if (!fired && now >= 1.0) { fired = true; f(q, sched, now) }
    }
    val res = new Simulator(qe, tuner = Some(hook)).run()
    (qe, res)
  }

  test("task DOP of 0 or below clamps to one driver") {
    val plan = Planner.plan(query)
    val j = plan.joinStages.head.id
    val (qe, res) = withMidRun(plan, taskDop = 3) { (q, sched, now) =>
      sched.apply(SetTaskDop(now, j, -5), now)
      val s = q.stage(j)
      s.liveTasks.foreach { t =>
        assert(t.pipeline(PipelineKind.Probe).get.activeCount == 1)
      }
    }
    assert(canon(res) == Vector("1000"))
  }

  test("task DOP on a stage with no tunable pipeline is logged and ignored") {
    val plan = Planner.plan(query)
    val (qe, res) = withMidRun(plan) { (q, sched, now) =>
      sched.apply(SetTaskDop(now, 1, 4), now) // final agg: no tunable pipeline
    }
    assert(res.requestLog.exists(_._2.contains("no tunable pipeline")))
    assert(canon(res) == Vector("1000"))
  }

  test("stage DOP no-op requests are logged and ignored") {
    val plan = Planner.plan(query)
    val j = plan.joinStages.head.id
    val (_, res) = withMidRun(plan, stageDop = 2) { (q, sched, now) =>
      sched.apply(SetStageDop(now, j, 2), now)
    }
    assert(res.requestLog.exists(_._2.contains("no-op")))
    assert(res.switchLog.isEmpty)
  }

  test("broadcast join never drops below one task on decrease") {
    val q = agg(joinB(keep(scan(orders), "o_id"), keep(scan(items), "i_order"),
      "o_id", "i_order"), Nil, count("cnt"))
    val plan = Planner.plan(q)
    val j = plan.joinStages.head.id
    val (qe, res) = withMidRun(plan, stageDop = 2) { (q2, sched, now) =>
      sched.apply(SetStageDop(now, j, 0), now)
    }
    assert(canon(res) == Vector("1000"))
  }

  test("scheduler log records every applied action with its virtual time") {
    val plan = Planner.plan(query)
    val j = plan.joinStages.head.id
    val (_, res) = withMidRun(plan) { (q, sched, now) =>
      sched.apply(SetTaskDop(now, j, 2), now)
    }
    val entries = res.requestLog.filter(_._2.startsWith("AC"))
    assert(entries.size == 1)
    assert(entries.head._1 >= 1.0)
  }

  test("a second join stage-DOP request while its rebuild runs is logged and ignored") {
    val plan = Planner.plan(query)
    val j = plan.joinStages.head.id
    val (_, res) = withMidRun(plan, stageDop = 2) { (q, sched, now) =>
      sched.apply(SetStageDop(now, j, 4), now)
      sched.apply(SetStageDop(now, j, 3), now)
    }
    assert(res.requestLog.exists(e => e._2.startsWith("IGNORED") && e._2.contains("a DOP switch is already in flight")))
    assert(res.switchLog.size == 1)
    assert(canon(res) == Vector("1000"))
  }

  test("a shuffle-stage request for its current DOP is a logged no-op") {
    val plan = Planner.plan(query, shuffleStageFor = Set("items"))
    val sh = plan.stages.collectFirst { case s: ShuffleStageDef => s.id }.get
    val (qe, res) = withMidRun(plan) { (q, sched, now) =>
      sched.apply(SetStageDop(now, sh, 1), now)
    }
    assert(res.requestLog.exists(e => e._2.startsWith("IGNORED") && e._2.contains("no-op request")))
    assert(qe.stage(sh).allTasks.size == 1)
    assert(canon(res) == Vector("1000"))
  }
}
