package repro.core

import repro.engine._

/** What-if prediction for a stage DOP change (§5.3). */
final case class Prediction(
    tRemainNow: Double, // remaining seconds at current DOP
    tTuning: Double, // parallelism-adjustment time (≈ hash rebuild for joins)
    nfRequested: Double, // requested DOP factor n2/n1
    nfGranted: Double, // factor after capping by upstream headroom
    tPredicted: Double, // (tRemain − tTuning)/nf + tTuning
)

/** The what-if service (§5.2–5.3).
  *
  * Remaining time of a stage is predicted from the table-scanning progress of
  * the scan stage below its probe side: `T_remain = V_remain / R_consume`.
  * Backpressure makes the scan consumption rate track the bottleneck stage's
  * processing rate, which is exactly why this is a valid progress proxy (§5.2).
  */
final class Predictor(qe: QueryExec, collector: InfoCollector) {

  /** Walk a stage's probe-side lineage down to its driving table scan. */
  def scanStageFor(stageId: Int): Option[ScanStageExec] = qe.stage(stageId) match {
    case s: ScanStageExec => Some(s)
    case _ => qe.plan.probeChildOf(stageId).flatMap(scanStageFor)
  }

  /** `T_remain = V_remain / R_consume` for the scan feeding `stageId`.
    * None while there is no measurable consumption rate yet.
    */
  def remainingSeconds(stageId: Int, window: Double = 10.0): Option[Double] =
    scanStageFor(stageId).flatMap { s =>
      if (s.completed) Some(0.0)
      else {
        val r = collector.scanRate(s.id, window)
        if (r <= 1e-9) None else Some(s.remainingRows / r)
      }
    }

  /** Estimated T_build: reshuffle of the cached build side plus the parallel
    * hash-table construction in the new task group (§5.2: stage build time =
    * max over its tasks, here the even-partition approximation).
    */
  def buildSeconds(j: JoinStageExec, toDop: Int): Double = {
    val rows = j.buildCacheRows.toDouble
    if (rows <= 0) 0.0
    else {
      val costs = qe.costs
      val sources = math.max(1, j.buildCaches.size)
      val taskDop = math.max(1, j.taskDop)
      // shuffle workers: one per (source, target) — see RebuildJob
      val shuffle = rows * costs.eff(costs.shuffleRow) / (sources * math.max(1, toDop))
      val build = rows / (math.max(1, toDop) * taskDop) * costs.eff(costs.buildRow)
      shuffle + build
    }
  }

  /** T_tuning of §5.3: ≈0 for stages without joins, ≈T_build otherwise. */
  def tuningSeconds(stageId: Int, toDop: Int): Double = qe.stage(stageId) match {
    case j: JoinStageExec => buildSeconds(j, toDop)
    case _ => 0.0
  }

  /** Aggregate peak rate of a stage's live drivers (each is one thread ≤ 1
    * core, so per-driver peak is 1/rowCost rows per second).
    */
  private def maxRateOf(s: StageExec): Double =
    s.liveTasks.flatMap(_.pipelines.flatMap(_.drivers)).filterNot(_.done)
      .map(d => 1.0 / d.rowCost).sum

  /** Maximum useful DOP factor n_f (§5.3), the lower of:
    *  - cluster CPU headroom relative to the upstream's current drivers, and
    *  - how much faster the upstream stage could actually produce — its
    *    drivers' aggregate peak rate over its measured current rate. Scaling
    *    the target stage beyond what the upstream can feed is wasted.
    */
  def maxNf(stageId: Int, window: Double = 10.0): Double = {
    val total = qe.cluster.totalCores
    val busy = qe.cluster.nodes.map(n => math.min(n.runnableCount, n.cores)).sum
    val free = math.max(0, total - busy)
    val upstreamDrivers = qe.plan.childrenOf(stageId)
      .map(cid => qe.stage(cid).liveTasks.map(_.driverCount).sum)
      .sum
    val coreCap = 1.0 + free.toDouble / math.max(1, upstreamDrivers)
    val upstreamCap = qe.plan.probeChildOf(stageId).map { cid =>
      val (cur, maxR) = qe.stage(cid) match {
        case sc: ScanStageExec => (collector.scanRate(sc.id, window), maxRateOf(sc))
        case other => (collector.throughput(other.id, window), maxRateOf(other))
      }
      if (cur <= 1e-9 || maxR <= 0) coreCap else math.max(1.0, maxR / cur)
    }.getOrElse(coreCap)
    math.max(1.0, math.min(coreCap, upstreamCap))
  }

  /** Full what-if: predicted remaining time of `stageId` at DOP `toDop`. */
  def predict(stageId: Int, toDop: Int, window: Double = 10.0): Option[Prediction] = {
    val s = qe.stage(stageId)
    val fromDop = math.max(1, s.stageDop)
    remainingSeconds(stageId, window).map { tRemain =>
      val tTuning = tuningSeconds(stageId, toDop)
      val nfReq = toDop.toDouble / fromDop
      val nfGranted = math.max(1.0, math.min(nfReq, maxNf(stageId, window)))
      val tPred =
        if (nfGranted <= 1.0) tRemain
        else math.max(0.0, tRemain - tTuning) / nfGranted + tTuning
      Prediction(tRemain, tTuning, nfReq, nfGranted, tPred)
    }
  }
}
