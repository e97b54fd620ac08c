package repro.queries

import repro.SparkSpec
import repro.engine._

class QueriesSpec extends SparkSpec {
  private lazy val t = Fixtures.tpch

  test("every suite case compiles to a well-formed stage DAG") {
    Queries.suite.foreach { qc =>
      val plan = Planner.plan(qc.plan(t), shuffleStageFor = qc.shuffleStageFor)
      assert(plan.stages.map(_.id).distinct.size == plan.stages.size, qc.name)
      assert(plan.stage(0).isInstanceOf[OutputStageDef], qc.name)
      // every non-output stage has exactly one consumer
      plan.stages.filterNot(_.id == 0).foreach { s =>
        assert(plan.parentOf(s.id).isDefined, s"${qc.name}: S${s.id} dangling")
      }
    }
  }

  test("q3 plan has the paper's shape: two partitioned joins over three scans") {
    val plan = Planner.plan(Queries.q3Plan(t))
    assert(plan.joinStages.size == 2)
    assert(plan.joinStages.forall(!_.broadcast))
    assert(plan.scanStages.map(_.table.name).toSet == Set("customer", "orders", "lineitem"))
    assert(plan.scanStages.forall(_.filter.isDefined || true))
    // the final aggregation groups by (l_orderkey, o_orderdate)
    val agg = plan.stages.collectFirst { case f: FinalAggStageDef => f }.get
    assert(agg.agg.groupNames == Vector("l_orderkey", "o_orderdate"))
  }

  test("q2j plan matches Fig 15: orders build side, lineitem probe side") {
    val plan = Planner.plan(Queries.q2jPlan(t))
    val j = plan.joinStages.head
    assert(plan.stage(j.buildStageId).asInstanceOf[ScanStageDef].table.name == "orders")
    assert(plan.stage(j.probeStageId).asInstanceOf[ScanStageDef].table.name == "lineitem")
  }

  test("qshuffle plan puts the filtered customer on the build side") {
    val plan = Planner.plan(Queries.qShufflePlan(t))
    val j = plan.joinStages.head
    val build = plan.stage(j.buildStageId).asInstanceOf[ScanStageDef]
    assert(build.table.name == "customer" && build.filter.isDefined)
  }

  test("build-side outputs are always cached for DOP switching (§4.5)") {
    Queries.suite.foreach { qc =>
      val plan = Planner.plan(qc.plan(t), shuffleStageFor = qc.shuffleStageFor)
      plan.joinStages.foreach { j =>
        assert(plan.stage(j.buildStageId).out.cached,
          s"${qc.name}: build input of S${j.id} not cached")
      }
    }
  }

  test("table-1 layout constants: lineitem splits 7 per node, others 1") {
    assert(t.lineitem.splits.size == 70)
    assert(t.orders.splits.size == 10)
    assert(t.customer.splits.size == 10)
    assert(t.part.splits.size == 10)
  }

  test("engine runs leave every table split unchanged: rows and cells are read-only") {
    // Scans hand split rows downstream without copying and loaded cells are
    // shared across rows, so one write into a table row would leak into other
    // rows and later runs.
    val tables = Seq(t.lineitem, t.orders, t.customer, t.part)
    val before = tables.map(_.splits.map(s => (s.rows, s.rows.map(_.clone()))))
    val costs = Fixtures.costs
    Queries.suite.foreach { qc =>
      val plan = Planner.plan(qc.plan(t), shuffleStageFor = qc.shuffleStageFor)
      new Simulator(new QueryExec(plan, Cluster.default(costs), costs, 2, 2)).run()
    }
    val plan = Planner.plan(Queries.q2jPlan(t))
    val slow = costs.copy(dataScale = 150.0)
    val switched = new Simulator(new QueryExec(plan, Cluster.default(slow), slow, 2, 1),
      script = Seq(SetStageDop(4.5, plan.joinStages.head.id, 4))).run()
    assert(switched.switchLog.nonEmpty, "the q2j switch must fire mid-run for this test to bite")

    for ((table, splits) <- tables.zip(before); (s, (rows, cells)) <- table.splits.zip(splits)) {
      assert(s.rows eq rows, s"${table.name} split ${s.id}: rows array replaced")
      assert(s.rows.length == cells.length, s"${table.name} split ${s.id}: row count")
      val changed = s.rows.indices.count { i =>
        val (row, was) = (s.rows(i), cells(i))
        row.length != was.length ||
          row.indices.exists(c => !(row(c).asInstanceOf[AnyRef] eq was(c).asInstanceOf[AnyRef]) ||
            !java.util.Objects.equals(row(c), was(c)))
      }
      assert(changed == 0, s"${table.name} split ${s.id}: $changed rows written")
    }
  }
}
