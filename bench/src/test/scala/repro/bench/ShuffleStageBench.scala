package repro.bench

import repro.SparkSpec
import repro.experiments.Experiments

/** Reproduces §6.4.2 (elastic shuffle stage): with orders stored on only two
  * nodes, the scan tasks' hash-partitioning work bottlenecks the join query
  * (paper: 45.22 s). Inserting a shuffle stage below the scan and raising its
  * DOP at runtime moves that work onto more nodes (paper: 30.21 s, −33.19%),
  * with diminishing returns once the bottleneck shifts to the join.
  */
class ShuffleStageBench extends SparkSpec {

  test("§6.4.2: elastic shuffle stage relieves the shuffle bottleneck") {
    val t = BenchFixtures.shuffleTpch
    val costs = BenchFixtures.costs
    val (base, _) = Experiments.shuffleBaseline(t, costs)
    val (elastic, script, plan) = Experiments.shuffleElastic(t, costs)

    BenchFixtures.banner("§6.4.2 — Elastic shuffle stage (orders on 2 nodes)")
    val reduction = Experiments.printReduction("no shuffle stage", base, "with elastic shuffle", elastic,
      "45.22s -> 30.21s, -33.19%")
    Experiments.printDecisions(script.log)

    // the shuffle-stage DOP sweep was applied
    assert(script.accepted.size == 3, s"log=${script.log}")

    // offloading the shuffle work reduces total time materially (paper: 33%)
    assert(reduction > 0.15, f"reduction ${reduction * 100}%.1f%%")

    // same result with and without the shuffle stage
    assert(BenchFixtures.resultsMatch(base.rows, elastic.rows))
  }

  test("diminishing returns once the shuffle stage stops being the bottleneck") {
    val t = BenchFixtures.shuffleTpch
    val costs = BenchFixtures.costs
    val plan = repro.engine.Planner.plan(
      repro.queries.Queries.qShufflePlan(t), shuffleStageFor = Set("orders"))
    val join = Experiments.joinAboveScan(plan, "orders")
    val shuffle = Experiments.shuffleStageId(plan)
    def staticAt(dop: Int): Double =
      Experiments.run(plan, costs, 1, 2, overrides = Map(join -> 10, shuffle -> dop)).duration
    val d2 = staticAt(2); val d6 = staticAt(6); val d10 = staticAt(10)
    println(f"shuffle DOP sweep: 2=$d2%.2fs 6=$d6%.2fs 10=$d10%.2fs")
    assert(d6 < d2)
    // the 6→10 step buys much less than the 2→6 step (bottleneck shifted)
    assert((d6 - d10) < (d2 - d6))
  }
}
