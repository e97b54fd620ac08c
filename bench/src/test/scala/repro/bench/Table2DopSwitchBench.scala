package repro.bench

import repro.SparkSpec
import repro.experiments.Experiments

/** Reproduces **Table 2: State transfer details of Q2J** (§6.4.1) and the
  * section's headline numbers: Q2J at stage DOP 2 runs ~1332 s; three DOP
  * switches (2→4→6→8) cut it to ~584 s (−56.16%); each switch's state
  * transfer splits into shuffle time + build time, both shrinking as the
  * target DOP grows; a late request is rejected by the coordinator.
  */
class Table2DopSwitchBench extends SparkSpec {

  test("Table 2: DOP switching state transfer — shuffle/build split") {
    val t = BenchFixtures.tpch
    val costs = BenchFixtures.costs
    val static = BenchFixtures.q2jStatic2
    val (tuned, script, _) = Experiments.q2jSwitch(t, costs)

    BenchFixtures.banner("Table 2 — State transfer details of Q2J")
    Experiments.printTable2(tuned.switchLog)
    println(f"paper:  2->4: 42.67 / 12.55 / 30.12   4->6: 29.03 / 8.80 / 21.03   6->8: 21.61 / 5.12 / 16.49")
    val reduction = Experiments.printReduction("Q2J static DOP 2", static, "Q2J with switching", tuned,
      "1331.99s -> 584.01s, -56.16%")
    Experiments.printDecisions(script.log)

    // three accepted switches with the paper's DOP ladder
    val sw = tuned.switchLog
    assert(sw.map(s => (s.fromDop, s.toDop)) == Vector((2, 4), (4, 6), (6, 8)))

    // the late 8→10 request is rejected as un-amortizable (T_remain < T_build)
    assert(script.rejected.nonEmpty, s"expected a rejected request; log=${script.log}")
    assert(script.rejected.exists(_.verdict.left.exists(_.contains("not amortizable"))))

    // per-switch phase structure: total = shuffle + build, build > shuffle (paper shape)
    sw.foreach { s =>
      assert(s.shuffleSeconds > 0 && s.buildSeconds > 0)
      assert(s.buildSeconds > s.shuffleSeconds,
        f"build ${s.buildSeconds}%.2f should exceed shuffle ${s.shuffleSeconds}%.2f")
    }

    // both components shrink as the target DOP grows (the paper's key shape)
    assert(sw(0).totalSeconds > sw(1).totalSeconds && sw(1).totalSeconds > sw(2).totalSeconds)
    assert(sw(0).buildSeconds > sw(1).buildSeconds && sw(1).buildSeconds > sw(2).buildSeconds)
    assert(sw(0).shuffleSeconds > sw(2).shuffleSeconds)

    // headline: switching cuts execution time by roughly half (paper: 56.16%)
    assert(reduction > 0.35 && reduction < 0.75, f"reduction ${reduction * 100}%.1f%%")

    // and results are identical to the untuned run
    assert(BenchFixtures.resultsMatch(tuned.rows, static.rows))
  }
}
