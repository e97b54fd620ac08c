package repro.bench

import repro.SparkSpec
import repro.experiments.Experiments

/** Reproduces §6.2 (task DOP runtime tuning, Figs 22–24 headline numbers):
  * Q3 starting at stage/task DOP 1, with scripted intra-task DOP increases on
  * both join stages, finishes in ~42% of the untuned time (paper: 307.87 s vs
  * 740.34 s, a 58.42% reduction), and driver generation overhead is sub-ms.
  */
class IntraTaskBench extends SparkSpec {

  test("§6.2: intra-task DOP tuning cuts Q3 execution time") {
    val t = BenchFixtures.tpch
    val costs = BenchFixtures.costs
    val static = BenchFixtures.q3Static11
    val (tuned, script, plan) = Experiments.q3IntraTask(t, costs)

    BenchFixtures.banner("§6.2 — Q3 intra-task DOP runtime tuning")
    val reduction = Experiments.printReduction("Q3 static DOP(1,1)", static, "Q3 with AC tuning", tuned,
      "740.34s -> 307.87s, -58.42%")
    Experiments.printDecisions(script.log)

    // all five AC adjustments were accepted and applied
    assert(script.accepted.size == 5, s"log=${script.log}")

    // tuning must cut execution time substantially (paper: 58.42%)
    assert(reduction > 0.30 && reduction < 0.80, f"reduction ${reduction * 100}%.1f%%")

    // driver generation is effectively instant: only scheduling delay, no
    // state transfer (paper: <1ms per driver, throughput rises within 110ms)
    assert(tuned.switchLog.isEmpty) // no hash table rebuilds for task-DOP tuning

    // results identical to the untuned run
    assert(BenchFixtures.resultsMatch(tuned.rows, static.rows))
  }

  test("Fig 22 shape: static execution time decreases monotonically-ish with DOP") {
    val t = BenchFixtures.tpch
    val costs = BenchFixtures.costs
    val d1 = BenchFixtures.q3Static11.duration
    val d2 = Experiments.q3Static(t, costs, 2, 2).duration
    val d4 = Experiments.q3Static(t, costs, 4, 4).duration
    println(f"Q3 static durations: DOP1=$d1%.1fs DOP2=$d2%.1fs DOP4=$d4%.1fs")
    assert(d2 < d1 && d4 < d2)
    assert(d4 < d1 * 0.5) // parallelism actually buys time at this scale
  }
}
