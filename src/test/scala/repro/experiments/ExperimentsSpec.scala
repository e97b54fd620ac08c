package repro.experiments

import repro.SparkSpec
import repro.engine._
import repro.queries.{Fixtures, Queries}

/** The experiment harness itself: plan lookups, progress-triggered scripts,
  * and Table 1 layout — at unit-test scale.
  */
class ExperimentsSpec extends SparkSpec {
  private lazy val t = Fixtures.tpch
  private val costs = Fixtures.costs

  test("scanIdOf / joinAboveScan locate the paper's stages in Q3") {
    val plan = Planner.plan(Queries.q3Plan(t))
    val sLineitem = Experiments.scanIdOf(plan, "lineitem")
    val sOrders = Experiments.scanIdOf(plan, "orders")
    val jTop = Experiments.joinAboveScan(plan, "lineitem")
    val jMid = Experiments.joinAboveScan(plan, "orders")
    assert(plan.stage(sLineitem).isInstanceOf[ScanStageDef])
    assert(jTop != jMid)
    // the mid join feeds the top join's build side
    assert(plan.stage(jTop).asInstanceOf[JoinStageDef].buildStageId == jMid)
    intercept[IllegalArgumentException](Experiments.scanIdOf(plan, "nope"))
  }

  test("shuffleStageId finds the §4.6 stage only when inserted") {
    val without = Planner.plan(Queries.qShufflePlan(t))
    intercept[IllegalArgumentException](Experiments.shuffleStageId(without))
    val withStage = Planner.plan(Queries.qShufflePlan(t), shuffleStageFor = Set("orders"))
    val sid = Experiments.shuffleStageId(withStage)
    assert(withStage.stage(sid).isInstanceOf[ShuffleStageDef])
  }

  test("progress triggers fire once, in progress order, through the filter") {
    val plan = Planner.plan(Queries.q2jPlan(t))
    val scan = Experiments.scanIdOf(plan, "lineitem")
    val join = Experiments.joinAboveScan(plan, "lineitem")
    val slow = costs.copy(dataScale = 100.0)
    val script = new ProgressScript(Seq(
      Trigger(scan, 0.30, SetTaskDop(0, join, 2)),
      Trigger(scan, 0.60, SetTaskDop(0, join, 3)),
    ))
    val qe = new QueryExec(plan, Cluster.default(slow), slow, 1, 1)
    val res = new Simulator(qe, tuner = Some(script)).run()
    assert(script.log.size == 2)
    assert(script.accepted.size == 2)
    val times = script.log.map(_.at)
    assert(times == times.sorted)
  }

  test("table1 layout uses the paper's schemes at tiny SF") {
    val rows = Experiments.table1(spark, 0.001, costs)
    assert(rows.size == 8)
    assert(rows.map(_.table) ==
      Vector("nation", "region", "supplier", "part", "partsupp", "customer", "orders", "lineitem"))
    assert(rows.forall(_.tableBytes > 0))
  }

  test("run plumbing honours per-stage DOP overrides") {
    val plan = Planner.plan(Queries.q2jPlan(t))
    val join = Experiments.joinAboveScan(plan, "lineitem")
    val qe = new QueryExec(plan, Cluster.default(costs), costs, 1, 1, Map(join -> 3))
    val res = new Simulator(qe).run()
    assert(qe.stage(join).groups.head.dop == 3)
    assert(res.rows.nonEmpty)
  }
}
