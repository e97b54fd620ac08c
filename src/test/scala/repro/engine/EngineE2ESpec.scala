package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.engine.Dsl._
import repro.engine.TestRig._

/** End-to-end simulator runs on hand-built tables, checked against directly
  * computed expected results.
  */
class EngineE2ESpec extends AnyFunSuite {
  private val orders = ordersT(40) // o_id 0..39, o_cust = id % 10
  private val items = itemsT(40, 3) // 120 rows, i_order = i % 40

  test("scan + global count") {
    val res = runPlan(Planner.plan(agg(scan(orders), Nil, count("cnt"))))
    assert(canon(res) == Vector("40"))
  }

  test("scan + filter + count") {
    val q = agg(filter(scan(orders), "o_id<15")(s => {
      val i = s.idx("o_id"); r => Num.toD(r(i)) < 15
    }), Nil, count("cnt"))
    assert(canon(runPlan(Planner.plan(q))) == Vector("15"))
  }

  test("filter selecting nothing still yields a zero-count row") {
    val q = agg(filter(scan(orders), "false")(_ => _ => false), Nil, count("cnt"))
    assert(canon(runPlan(Planner.plan(q))) == Vector("0"))
  }

  test("projection expressions compute derived values") {
    val q = agg(project(scan(orders),
      "twice" -> (s => { val i = s.idx("o_id"); r => Num.toD(r(i)) * 2 })),
      Nil, sum("twice", "s"))
    // sum of 2*i for i in 0..39 = 2*780
    assert(canon(runPlan(Planner.plan(q))) == Vector(f"${1560.0}%.6f"))
  }

  test("group-by aggregation over scan") {
    val q = agg(scan(orders), Seq("o_cust"), count("cnt"))
    val res = runPlan(Planner.plan(q))
    assert(res.rows.size == 10)
    assert(canon(res) == (0 until 10).map(c => s"$c|4").sorted.toVector)
  }

  test("min/max/avg aggregates end to end") {
    val q = agg(scan(orders), Nil, min("o_id", "mn"), max("o_id", "mx"), avg("o_id", "av"))
    assert(canon(runPlan(Planner.plan(q))) == Vector(f"0|39|${19.5}%.6f"))
  }

  test("partitioned hash join with counts") {
    val q = agg(joinP(keep(scan(orders), "o_id"), keep(scan(items), "i_order"),
      "o_id", "i_order"), Nil, count("cnt"))
    assert(canon(runPlan(Planner.plan(q))) == Vector("120"))
  }

  test("join emits matched pairs with correct values") {
    val small = mkTable("s", Seq("k", "v"), Seq(0 -> Seq(Seq[Any](1L, 10L), Seq[Any](2L, 20L))))
    val big = mkTable("b", Seq("bk", "bv"),
      Seq(0 -> Seq(Seq[Any](1L, 100L), Seq[Any](1L, 101L), Seq[Any](3L, 300L))))
    val q = joinP(scan(small), scan(big), "k", "bk")
    val res = runPlan(Planner.plan(q))
    assert(canon(res) == Vector("1|10|1|100", "1|10|1|101"))
  }

  test("broadcast join matches the partitioned result") {
    val qp = agg(joinP(keep(scan(orders), "o_id"), keep(scan(items), "i_order"),
      "o_id", "i_order"), Nil, count("cnt"))
    val qb = agg(joinB(keep(scan(orders), "o_id"), keep(scan(items), "i_order"),
      "o_id", "i_order"), Nil, count("cnt"))
    assert(canon(runPlan(Planner.plan(qp))) == canon(runPlan(Planner.plan(qb))))
  }

  test("broadcast join keeps every row when the NIC is the limit") {
    val q = agg(joinB(keep(scan(ordersT(200)), "o_id"), keep(scan(itemsT(200, 5)), "i_order"),
      "o_id", "i_order"), Nil, count("cnt"))
    // at 5e4 B/s one row costs more than a tick's budget; at stage DOP > 1
    // it must still reach every join task
    for (nic <- Seq(1e6, 2e5, 5e4); sd <- 1 to 3) {
      val c = CostModel.forTests.copy(dataScale = 400.0, netBytesPerSec = nic)
      assert(canon(runPlan(Planner.plan(q), stageDop = sd, c = c)) == Vector("1000"),
        s"netBytesPerSec=$nic stageDop=$sd")
    }
  }

  test("join + group-by + sum") {
    val q = agg(joinP(keep(scan(orders), "o_id", "o_cust"),
      keep(scan(items), "i_order", "i_val"), "o_id", "i_order"),
      Seq("o_cust"), count("cnt"), sum("i_val", "sv"))
    val res = runPlan(Planner.plan(q))
    // expected: group items by (i % 40) % 10
    val expected = (0 until 120).groupBy(i => (i % 40) % 10).toVector
      .map { case (g, is) => s"$g|${is.size}|${is.map(_.toDouble).sum.formatted("%.6f")}" }
      .sorted
    assert(canon(res) == expected)
  }

  test("shuffle stage variant returns identical results") {
    val q = agg(joinP(keep(scan(orders), "o_id"), keep(scan(items), "i_order"),
      "o_id", "i_order"), Nil, count("cnt"))
    val base = runPlan(Planner.plan(q))
    val shuf = runPlan(Planner.plan(q, shuffleStageFor = Set("items")), overrides = Map.empty)
    assert(canon(base) == canon(shuf))
  }

  test("three-way join chain") {
    val cust = mkTable("cust", Seq("c_id"), Seq(0 -> (0L until 10L).map(i => Seq[Any](i))))
    val q = agg(
      joinP(
        project(joinP(scan(cust), keep(scan(orders), "o_id", "o_cust"), "c_id", "o_cust"),
          "o_id" -> (s => col(s, "o_id"))),
        keep(scan(items), "i_order"),
        "o_id", "i_order"),
      Nil, count("cnt"))
    assert(canon(runPlan(Planner.plan(q))) == Vector("120"))
  }

  test("deterministic: identical runs give identical timing and results") {
    val q = agg(joinP(keep(scan(orders), "o_id"), keep(scan(items), "i_order", "i_val"),
      "o_id", "i_order"), Seq("i_order"), count("cnt"))
    val a = runPlan(Planner.plan(q))
    val b = runPlan(Planner.plan(q))
    assert(canon(a) == canon(b))
    assert(a.duration == b.duration)
    assert(a.busyCoreSeconds == b.busyCoreSeconds)
  }

  test("higher static DOP finishes no later (Fig 22 shape)") {
    val q = agg(joinP(keep(scan(orders), "o_id"), keep(scan(items), "i_order"),
      "o_id", "i_order"), Nil, count("cnt"))
    val d1 = runPlan(Planner.plan(q), stageDop = 1, taskDop = 1).duration
    val d2 = runPlan(Planner.plan(q), stageDop = 2, taskDop = 2).duration
    assert(d2 <= d1)
  }

  test("query without aggregation streams rows to output") {
    val res = runPlan(Planner.plan(keep(scan(orders), "o_id")))
    assert(res.rows.size == 40)
  }

  test("simulator reports progress metrics during the run") {
    val q = agg(scan(items), Nil, count("cnt"))
    val res = runPlan(Planner.plan(q))
    assert(res.collector.samples.nonEmpty)
    assert(res.duration > 0)
  }
}
