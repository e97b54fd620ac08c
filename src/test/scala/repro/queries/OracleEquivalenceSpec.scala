package repro.queries

import repro.{Oracle, SparkSpec}
import repro.engine._
import repro.sparkbridge.SparkTables

/** Every query in the correctness suite: the ENGINE result (simulated
  * distributed execution, virtual cluster) must match DuckDB executing the
  * equivalent SQL over the same input tables. This is the "it's correct", not
  * just "it ran" check for the whole engine substrate.
  */
class OracleEquivalenceSpec extends SparkSpec {
  private lazy val t = Fixtures.tpch
  private val costs = Fixtures.costs

  private def runEngine(qc: QueryCase, stageDop: Int = 2, taskDop: Int = 2,
                        c: CostModel = costs): SimResult = {
    val plan = Planner.plan(qc.plan(t), shuffleStageFor = qc.shuffleStageFor)
    val qe = new QueryExec(plan, Cluster.default(c), c, stageDop, taskDop)
    new Simulator(qe).run()
  }

  private def assertMatchesDuckDb(qc: QueryCase, res: SimResult): Unit =
    Oracle.assertEquivalent(SparkTables.toDf(spark, res.schema, res.rows), qc.duckSql, t.dfs: _*)

  // (2,2) keeps the suite's original test names; (1,1) and (3,2) add serial
  // and uneven stage/task parallelism.
  for (qc <- Queries.suite; (stageDop, taskDop) <- Seq((2, 2), (1, 1), (3, 2))) {
    val at = if (stageDop == 2 && taskDop == 2) "" else s" at DOP ($stageDop,$taskDop)"
    test(s"engine matches DuckDB$at: ${qc.name}") {
      assertMatchesDuckDb(qc, runEngine(qc, stageDop, taskDop))
    }
  }

  test("engine matches DuckDB: broadcast_join on a NIC-starved cluster") {
    val qc = Queries.suite.find(_.name == "broadcast_join").get
    val starved = runEngine(qc, c = costs.copy(netBytesPerSec = 5e4))
    assert(starved.duration > runEngine(qc).duration,
      "the NIC must be the limit for this test to bite")
    assertMatchesDuckDb(qc, starved)
  }

  test("engine matches DuckDB under runtime DOP tuning (q2j with a switch)") {
    val qc = Queries.suite.find(_.name == "q2j").get
    val plan = Planner.plan(qc.plan(t))
    val join = plan.joinStages.head.id
    // slow the clock so the switch fires mid-probe, after the build side
    // (orders scan) has fully streamed in
    val slow = costs.copy(dataScale = 150.0)
    val qe = new QueryExec(plan, Cluster.default(slow), slow, 2, 1)
    val res = new Simulator(qe, script = Seq(SetStageDop(4.5, join, 4))).run()
    assert(res.switchLog.nonEmpty, "switch must fire mid-run for this test to bite")
    val engineDf = SparkTables.toDf(spark, res.schema, res.rows)
    Oracle.assertEquivalent(engineDf, qc.duckSql,
      "lineitem" -> t.lineitemDf, "orders" -> t.ordersDf)
  }
}
