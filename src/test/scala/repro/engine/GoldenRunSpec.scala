package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.engine.Dsl._
import repro.engine.TestRig._

/** Exact virtual outcomes of every runtime-tuning path, pinned to recorded
  * values. Engine refactors must leave them bit for bit unchanged; only a
  * declared model change re-records them (the failure message prints the new
  * literal). TestRig tables and clusters need no Spark, so the values do not
  * depend on the host.
  */
class GoldenRunSpec extends AnyFunSuite {
  import GoldenRunSpec.Outcome

  private val c = CostModel.forTests.copy(dataScale = 800.0)
  private val orders = ordersT(300)
  private val items = itemsT(300, 6)

  private def joinCount = agg(joinP(keep(scan(orders), "o_id"),
    keep(scan(items), "i_order", "i_val"), "o_id", "i_order"),
    Seq("i_order"), count("cnt"), sum("i_val", "sv"))

  private def broadcastCount = agg(joinB(keep(scan(orders), "o_id"), keep(scan(items), "i_order"),
    "o_id", "i_order"), Nil, count("cnt"))

  private def golden(name: String)(run: => SimResult)(expected: Outcome): Unit = test(name) {
    val r = run
    val got = Outcome(r.duration, r.busyCoreSeconds, r.allocatedDriverSeconds, r.switchLog, r.requestLog)
    assert(got == expected, s"\nrecorded now:\n${got.render}")
  }

  private def shufflePlan = Planner.plan(joinCount, shuffleStageFor = Set("items"))
  private def shuffleId(p: QueryPlan): Int = p.stages.collectFirst { case s: ShuffleStageDef => s.id }.get

  golden("partitioned join DOP switch 2 -> 4") {
    val p = Planner.plan(joinCount)
    runPlan(p, stageDop = 2, script = Seq(SetStageDop(1.5, p.joinStages.head.id, 4)), c = c)
  }(Outcome(4.899999999999991, 15.948000000000004, 37.24999999999996,
    Vector(SwitchRecord(2, 2, 4, 1.5000000000000007, 1.6000000000000008, 1.6500000000000008)),
    Vector((1.5000000000000007, "AP S2 2 -> 4 (DOP switch)"))))

  golden("broadcast join AP 1 -> 3, then RP 3 -> 1") {
    val p = Planner.plan(broadcastCount)
    val j = p.joinStages.head.id
    runPlan(p, script = Seq(SetStageDop(1.2, j, 3), SetStageDop(3.0, j, 1)), c = c)
  }(Outcome(3.949999999999994, 11.701680000000014, 25.6,
    Vector(SwitchRecord(2, 1, 3, 1.2000000000000004, 1.6000000000000008, 1.800000000000001)),
    Vector((1.2000000000000004, "AP S2 1 -> 3 (broadcast rebuild)"),
      (3.049999999999997, "RP S2 3 -> 1"))))

  golden("shuffle stage AP 1 -> 4") {
    val p = shufflePlan
    runPlan(p, script = Seq(SetStageDop(0.8, shuffleId(p), 4)), c = c)
  }(Outcome(8.249999999999982, 15.85488000000003, 58.15000000000003,
    Vector(),
    Vector((0.8000000000000002, "AP S5 1 -> 4"))))

  golden("shuffle stage RP 4 -> 1") {
    val p = shufflePlan
    runPlan(p, overrides = Map(shuffleId(p) -> 4), script = Seq(SetStageDop(0.8, shuffleId(p), 1)), c = c)
  }(Outcome(8.899999999999991, 15.794400000000001, 60.29999999999977,
    Vector(),
    Vector((0.8000000000000002, "AP S5 4 -> 1"))))

  golden("task DOP AC up then down on the join and a scan") {
    val p = Planner.plan(joinCount)
    val (j, s) = (p.joinStages.head.id, p.scanStages.find(_.table.name == "items").get.id)
    runPlan(p, script = Seq(SetTaskDop(0.8, j, 3), SetTaskDop(0.9, s, 2), SetTaskDop(1.6, j, 1)), c = c)
  }(Outcome(6.5999999999999845, 15.427200000000013, 39.05,
    Vector(),
    Vector((0.8000000000000002, "AC S2 -> 3"),
      (0.9000000000000002, "AC S4 -> 2"),
      (1.6000000000000008, "AC S2 -> 1"))))

  golden("broadcast join with the NIC as the limit (5e4 B/s)") {
    val q = agg(joinB(keep(scan(ordersT(200)), "o_id"), keep(scan(itemsT(200, 5)), "i_order"),
      "o_id", "i_order"), Nil, count("cnt"))
    runPlan(Planner.plan(q), c = CostModel.forTests.copy(dataScale = 400.0, netBytesPerSec = 5e4))
  }(Outcome(60.19999999999872, 2.7683599999999857, 315.3999999999948, Vector(), Vector()))
}

object GoldenRunSpec {
  /** What a run pins: its virtual timings, switches and request log. */
  final case class Outcome(duration: Double, busyCoreSeconds: Double,
                           allocatedDriverSeconds: Double, switchLog: Vector[SwitchRecord],
                           requestLog: Vector[(Double, String)]) {
    def render: String = {
      def q(s: String) = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""
      val sw = switchLog.map(r => s"SwitchRecord(${r.stageId}, ${r.fromDop}, ${r.toDop}, " +
        s"${r.tRequest}, ${r.tShuffleDone}, ${r.tDone})")
      val rl = requestLog.map { case (t, m) => s"($t, ${q(m)})" }
      s"Outcome($duration, $busyCoreSeconds, $allocatedDriverSeconds,\n" +
        s"  Vector(${sw.mkString(", ")}),\n  Vector(${rl.mkString(",\n    ")}))"
    }
  }
}
