package repro.bench

import repro.SparkSpec
import repro.experiments.Experiments

/** Reproduces §6.5.1 (stage remaining execution time prediction, Fig 29):
  * before each DOP switch the what-if service predicts the stage's remaining
  * time at the new DOP via T_pred = (T_remain − T_build)/n_f + T_build; the
  * paper's checks land within ~1–6 s of actual (24.22 s predicted vs 23.37 s
  * actual; 66.24 s vs 71.55 s). We assert the same order of accuracy,
  * relative to the predicted horizon.
  */
class PredictionBench extends SparkSpec {

  test("§6.5.1: what-if predictions track actual stage completion times") {
    val t = BenchFixtures.tpch
    val costs = BenchFixtures.costs
    val (res, checks) = Experiments.q3Prediction(t, costs)

    BenchFixtures.banner("§6.5.1 — Stage remaining time prediction (Q3, stage DOP 2, task DOP 3)")
    Experiments.printPredictionChecks(checks)
    println("paper: predicted 24.22s vs actual 23.37s; predicted 66.24s vs actual 71.55s")

    assert(checks.size == 2, s"expected both predictions to fire, got $checks")
    checks.foreach { ck =>
      assert(ck.prediction.tTuning > 0) // join stages pay a rebuild
      assert(ck.prediction.tPredicted < ck.prediction.tRemainNow) // what-if says scaling helps
      assert(ck.actualFinish > ck.atTime)
      // within 40% of the remaining horizon (paper lands within ~4–8%)
      assert(ck.errorFrac < 0.40, f"error ${ck.errorFrac * 100}%.1f%%")
    }
  }
}
