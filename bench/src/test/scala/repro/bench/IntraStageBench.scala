package repro.bench

import repro.SparkSpec
import repro.experiments.Experiments

/** Reproduces §6.3 (stage DOP runtime tuning, Fig 25a headline numbers): Q3
  * with DOP switches on both join stages reaches a deeper reduction than
  * intra-task tuning alone (paper: 194.76 s, −73.71%); T_build scales with the
  * build side's data volume (paper: 2.991 s for S3 vs 14.11 s for S1); the
  * last adjustment is rejected because the estimated remaining time is less
  * than T_build.
  */
class IntraStageBench extends SparkSpec {

  test("§6.3: intra-stage DOP tuning (DOP switching) cuts Q3 deeper") {
    val t = BenchFixtures.tpch
    val costs = BenchFixtures.costs
    val static = BenchFixtures.q3Static11
    val (tuned, script, plan) = Experiments.q3IntraStage(t, costs)

    val jMid = Experiments.joinAboveScan(plan, "orders") // paper's S3
    val jTop = Experiments.joinAboveScan(plan, "lineitem") // paper's S1

    BenchFixtures.banner("§6.3 — Q3 intra-stage DOP runtime tuning")
    val reduction = Experiments.printReduction("Q3 static DOP(1,1)", static, "Q3 with AP tuning", tuned,
      "740.34s -> 194.76s, -73.71%")
    tuned.switchLog.foreach(s => println(s"  switch $s"))
    Experiments.printDecisions(script.log)

    // switches happened on both join stages
    assert(tuned.switchLog.exists(_.stageId == jMid))
    assert(tuned.switchLog.exists(_.stageId == jTop))

    // T_build tracks build-side volume: the top join's build side (the joined
    // customer⋈orders intermediate) outweighs the mid join's (filtered
    // customer), so its rebuilds take longer (paper: 14.11s vs 2.991s)
    val midBuild = tuned.switchLog.filter(_.stageId == jMid).map(_.buildSeconds).max
    val topBuild = tuned.switchLog.filter(_.stageId == jTop).map(_.buildSeconds).max
    println(f"max T_build: S$jMid(mid)=$midBuild%.2fs  S$jTop(top)=$topBuild%.2fs (paper: 2.991s / 14.11s)")
    assert(topBuild > midBuild)

    // the last AP request near the end of the scan is rejected (filter rule)
    assert(script.rejected.nonEmpty, s"log=${script.log}")
    assert(script.rejected.exists(_.verdict.left.exists(_.contains("not amortizable"))))

    // stage tuning reaches a deeper cut than intra-task tuning (paper shape:
    // 73.71% vs 58.42%)
    val (taskTuned, _, _) = Experiments.q3IntraTask(t, costs)
    println(f"intra-task for comparison: ${taskTuned.duration}%.2fs")
    assert(reduction > 0.40, f"reduction ${reduction * 100}%.1f%%")
    assert(tuned.duration <= taskTuned.duration * 1.1)

    // results identical to the untuned run
    assert(BenchFixtures.resultsMatch(tuned.rows, static.rows))
  }
}
