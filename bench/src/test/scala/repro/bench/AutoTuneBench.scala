package repro.bench

import repro.SparkSpec
import repro.experiments.Experiments

/** Reproduces §6.5.2 (automatic DOP tuning): under a whole-query latency
  * constraint the DOP monitor meets the deadline while spending fewer
  * resources than an always-max configuration, reducing parallelism ("RP")
  * when a unit runs ahead of schedule.
  */
class AutoTuneBench extends SparkSpec {

  test("§6.5.2: the auto-tuner meets the latency constraint with minimal resources") {
    val t = BenchFixtures.tpch
    val costs = BenchFixtures.costs
    // a deadline between the DOP(3,2) initial pace and what max tuning achieves
    val static = Experiments.q3Static(t, costs, 3, 2)
    val deadline = static.duration * 0.75
    val (tuned, tuner, _) = Experiments.q3AutoTune(t, costs, deadline)

    BenchFixtures.banner("§6.5.2 — Automatic DOP tuning (Q3)")
    println(f"deadline:               $deadline%8.2fs")
    println(f"static DOP(3,2):        ${static.duration}%8.2fs")
    val tunedAvgPar = tuned.allocatedDriverSeconds / tuned.duration
    println(f"auto-tuned:             ${tuned.duration}%8.2fs, held parallelism avg $tunedAvgPar%6.1f drivers")
    Experiments.printDecisions(tuner.log)

    // deadline met (with a small tolerance for the monitor's 5s period),
    // which the initial static configuration would have missed
    assert(tuned.duration <= deadline * 1.15,
      f"finished ${tuned.duration}%.1fs vs deadline $deadline%.1fs")
    assert(static.duration > deadline)

    // the tuner actually acted
    assert(tuner.decisions.exists(_._2.startsWith("APPLIED")))

    // resource frugality: the deadline is met while *holding* far less
    // parallelism than an always-max run would reserve at any moment —
    // the paper's "as few compute resources as possible" claim
    val alwaysMax = Experiments.q3Static(t, costs, 8, 8)
    val maxAvgPar = alwaysMax.allocatedDriverSeconds / alwaysMax.duration
    println(f"always-max DOP(8,8):    ${alwaysMax.duration}%8.2fs, held parallelism avg $maxAvgPar%6.1f drivers")
    assert(tunedAvgPar < maxAvgPar * 0.8,
      f"tuned held $tunedAvgPar%.1f vs always-max $maxAvgPar%.1f")

    // results identical to static execution
    assert(BenchFixtures.resultsMatch(tuned.rows, static.rows))
  }

  test("§6.5.2: the monitor releases resources when ahead of schedule (RP)") {
    val t = BenchFixtures.tpch
    val costs = BenchFixtures.costs
    val static = Experiments.q3Static(t, costs, 3, 2)
    // very loose deadline: the tuner should scale DOWN from the initial (3,2)
    val (tuned, tuner, _) = Experiments.q3AutoTune(t, costs, static.duration * 5.0)
    Experiments.printDecisions(tuner.log)
    assert(tuner.decisions.exists(_._2.contains("RP")),
      s"expected RP reductions; got ${tuner.decisions.map(_._2)}")
  }
}
