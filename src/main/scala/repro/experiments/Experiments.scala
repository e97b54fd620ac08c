package repro.experiments

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.core.{AutoTuner, ControlPlane, Decision, Prediction, Tuner}
import repro.engine._
import repro.queries.{Queries, Tpch}
import repro.sparkbridge.SparkTables

/** A tuning action fired when a scan stage's progress crosses a threshold.
  * Progress-triggered scripts make the experiments robust to cost-model
  * recalibration: the paper's wall-clock-scripted adjustments are expressed as
  * fractions of the probe-side table scan instead.
  */
final case class Trigger(scanStageId: Int, atProgress: Double, action: TuningAction)

/** Tuner that fires progress triggers through the query's control plane,
  * so each is vetted by the DOP tuning request filter (§5.2) and logged.
  */
final class ProgressScript(triggers: Seq[Trigger]) extends Tuner {
  private val fired = mutable.Set[Int]()

  protected def decide(now: Double, plane: ControlPlane, sched: DynamicScheduler): Unit =
    for ((tr, i) <- triggers.zipWithIndex if !fired(i) && progress(plane.qe, tr) >= tr.atProgress) {
      fired += i
      plane.request(tr.action, sched, now)
    }

  private def progress(qe: QueryExec, tr: Trigger): Double = qe.stage(tr.scanStageId) match {
    case s: ScanStageExec => s.progress
    case _ => 1.0
  }

  def rejected: Vector[Decision] = log.filterNot(_.accepted)
  def accepted: Vector[Decision] = log.filter(_.accepted)
}

/** Shared experiment harness for the jobs/ entrypoints and bench/ suites. */
object Experiments {

  val DataNodes: Vector[Int] = (0 until 10).toVector

  // ------------------------------------------------------------ plan helpers

  /** Scan stage id of `table` in `plan`. */
  def scanIdOf(plan: QueryPlan, table: String): Int =
    plan.scanStages.find(_.table.name == table).map(_.id)
      .getOrElse(throw new IllegalArgumentException(s"no scan of $table"))

  /** The join stage whose probe lineage contains the scan of `table`. */
  def joinAboveScan(plan: QueryPlan, table: String): Int = {
    val sid = scanIdOf(plan, table)
    def descends(id: Int): Boolean = id == sid || plan.probeChildOf(id).exists(descends)
    plan.joinStages.map(_.id).filter(descends).min
  }

  def shuffleStageId(plan: QueryPlan): Int =
    plan.stages.collectFirst { case s: ShuffleStageDef => s.id }
      .getOrElse(throw new IllegalArgumentException("plan has no shuffle stage"))

  // ------------------------------------------------------------ run plumbing

  /** A progress script over `plan`: step (table, progress, DOP) fires when the
    * table's scan reaches `progress`, asking `action` for that DOP on the join
    * above the scan.
    */
  private def joinScript(plan: QueryPlan, action: (Int, Int) => TuningAction,
                 steps: (String, Double, Int)*): ProgressScript =
    new ProgressScript(steps.map { case (table, progress, dop) =>
      Trigger(scanIdOf(plan, table), progress, action(joinAboveScan(plan, table), dop))
    })

  def run(plan: QueryPlan, costs: CostModel, stageDop0: Int, taskDop0: Int,
          overrides: Map[Int, Int] = Map.empty,
          tuner: Option[TunerHook] = None,
          maxTime: Double = 50000.0): SimResult = {
    val qe = new QueryExec(plan, Cluster.default(costs), costs, stageDop0, taskDop0, overrides)
    new Simulator(qe, tuner = tuner, maxVirtualSeconds = maxTime).run()
  }

  // ------------------------------------------------------------ Table 1

  final case class Table1Row(table: String, scheme: String, tableBytes: Long, splitBytes: Long)

  /** Reproduces Table 1: the TPC-H table setup — partitioning scheme, table
    * size and split size. Sizes are virtual bytes (generated bytes ×
    * dataScale, i.e. SF0.1 data standing in for SF100).
    */
  def table1(spark: SparkSession, sf: Double, costs: CostModel): Vector[Table1Row] = {
    val one = Vector(0)
    val all = DataNodes
    def row(name: String, df: org.apache.spark.sql.DataFrame,
            nodes: Vector[Int], perNode: Int): Table1Row = {
      val t = SparkTables.fromDf(df, name, nodes, perNode)
      val scaled = (t.bytes * costs.dataScale).toLong
      val scheme = s"${nodes.size} node${if (nodes.size > 1) "s" else ""}, $perNode split/node"
      Table1Row(name, scheme, scaled, scaled / math.max(1, t.splits.size))
    }
    Vector(
      row("nation", SynthData.nation(spark), one, 1),
      row("region", SynthData.region(spark), one, 1),
      row("supplier", SynthData.supplier(spark, sf), all, 1),
      row("part", SynthData.part(spark, sf), all, 1),
      row("partsupp", SynthData.partsupp(spark, sf), all, 1),
      row("customer", SynthData.customer(spark, sf), all, 1),
      row("orders", SynthData.orders(spark, sf), all, 1),
      row("lineitem", SynthData.lineitem(spark, sf), all, 7),
    )
  }

  // ------------------------------------------------------------ Q3 (§6.2/§6.3)

  /** Presto-like execution: DOP fixed before execution, no runtime tuning. */
  def q3Static(t: Tpch, costs: CostModel, stageDop: Int, taskDop: Int): SimResult =
    run(Planner.plan(Queries.q3Plan(t)), costs, stageDop, taskDop)

  /** Intra-task runtime tuning (§6.2): start at stage/task DOP 1; raise the
    * driver counts of both join stages as the probe scans progress (the
    * paper's "AC Sn,a,b" adjustments).
    */
  def q3IntraTask(t: Tpch, costs: CostModel): (SimResult, ProgressScript, QueryPlan) = {
    val plan = Planner.plan(Queries.q3Plan(t))
    val script = joinScript(plan, SetTaskDop(0, _, _),
      ("orders", 0.10, 2), ("orders", 0.30, 4),
      ("lineitem", 0.05, 2), ("lineitem", 0.20, 4), ("lineitem", 0.50, 8))
    (run(plan, costs, 1, 1, tuner = Some(script)), script, plan)
  }

  /** Intra-stage runtime tuning (§6.3): DOP switches on both join stages; the
    * last request fires near the end of the probe scan and should be rejected
    * by the filter (T_remain < T_build).
    */
  def q3IntraStage(t: Tpch, costs: CostModel): (SimResult, ProgressScript, QueryPlan) = {
    val plan = Planner.plan(Queries.q3Plan(t))
    val script = joinScript(plan, SetStageDop(0, _, _),
      ("orders", 0.10, 2), ("orders", 0.40, 4),
      ("lineitem", 0.05, 2), ("lineitem", 0.25, 4), ("lineitem", 0.50, 6),
      ("lineitem", 0.995, 8)) // expect rejection
    (run(plan, costs, 1, 1, tuner = Some(script)), script, plan)
  }

  // ------------------------------------------------------------ Q2J (§6.4.1, Table 2)

  /** DOP switching for the partitioned hash join: three switches 2→4→6→8 plus
    * a late request the coordinator should reject.
    */
  def q2jSwitch(t: Tpch, costs: CostModel): (SimResult, ProgressScript, QueryPlan) = {
    val plan = Planner.plan(Queries.q2jPlan(t))
    val script = joinScript(plan, SetStageDop(0, _, _),
      ("lineitem", 0.08, 4), ("lineitem", 0.35, 6), ("lineitem", 0.60, 8),
      ("lineitem", 0.96, 10)) // expect rejection
    (run(plan, costs, 2, 1, tuner = Some(script)), script, plan)
  }

  def q2jStatic(t: Tpch, costs: CostModel, stageDop: Int): SimResult =
    run(Planner.plan(Queries.q2jPlan(t)), costs, stageDop, 1)

  // ------------------------------------------------------------ shuffle stage (§6.4.2)

  /** Load the §6.4.2 setup: orders restricted to two data nodes so its scan
    * tasks' hash-partitioning (shuffle) work bottlenecks the query.
    */
  def shuffleTables(spark: SparkSession, sf: Double): Tpch =
    Queries.loadTpch(spark, sf, DataNodes, ordersNodes = Some(Vector(0, 1)))

  /** Baseline: no shuffle stage; join DOP 10; shuffle work stuck on 2 nodes. */
  def shuffleBaseline(t: Tpch, costs: CostModel): (SimResult, QueryPlan) = {
    val plan = Planner.plan(Queries.qShufflePlan(t))
    val join = joinAboveScan(plan, "orders")
    (run(plan, costs, 1, 2, overrides = Map(join -> 10)), plan)
  }

  /** With an elastic shuffle stage under orders, swept 2→4→6→8 at runtime. */
  def shuffleElastic(t: Tpch, costs: CostModel): (SimResult, ProgressScript, QueryPlan) = {
    val plan = Planner.plan(Queries.qShufflePlan(t), shuffleStageFor = Set("orders"))
    val join = joinAboveScan(plan, "orders")
    val shuffle = shuffleStageId(plan)
    val sOrders = scanIdOf(plan, "orders")
    val script = new ProgressScript(Seq(
      Trigger(sOrders, 0.10, SetStageDop(0, shuffle, 4)),
      Trigger(sOrders, 0.30, SetStageDop(0, shuffle, 6)),
      Trigger(sOrders, 0.50, SetStageDop(0, shuffle, 8)),
    ))
    (run(plan, costs, 1, 2, overrides = Map(join -> 10, shuffle -> 2),
      tuner = Some(script)), script, plan)
  }

  // ------------------------------------------------------------ prediction (§6.5.1)

  final case class PredictionCheck(stageId: Int, atTime: Double, toDop: Int,
                                   prediction: Prediction, predictedFinish: Double,
                                   actualFinish: Double) {
    def errorSeconds: Double = math.abs(predictedFinish - actualFinish)
    def errorFrac: Double = errorSeconds / math.max(1e-9, actualFinish - atTime + 1e-9)
  }

  /** Predict-then-apply: before each DOP switch the what-if service estimates
    * the stage's remaining time at the new DOP; after the run the estimate is
    * compared with the stage's actual completion time (Fig 29's check).
    */
  def q3Prediction(t: Tpch, costs: CostModel): (SimResult, Vector[PredictionCheck]) = {
    val plan = Planner.plan(Queries.q3Plan(t))
    val script = joinScript(plan, SetStageDop(0, _, _), ("orders", 0.25, 8), ("lineitem", 0.30, 8))
    val qe = new QueryExec(plan, Cluster.default(costs), costs, 2, 3)
    val res = new Simulator(qe, tuner = Some(script)).run()
    val checks = script.accepted.flatMap { d =>
      val sid = d.action.stageId
      d.prediction.map(p =>
        PredictionCheck(sid, d.at, d.action.to, p, d.at + p.tPredicted, qe.stage(sid).completedAt))
    }
    (res, checks)
  }

  // ------------------------------------------------------------ auto-tuning (§6.5.2)

  /** Run Q3 under the DOP auto-tuner with per-scan-stage deadlines derived
    * from a whole-query latency constraint.
    */
  def q3AutoTune(t: Tpch, costs: CostModel, queryDeadline: Double):
      (SimResult, AutoTuner, QueryPlan) = {
    val plan = Planner.plan(Queries.q3Plan(t))
    val sOrders = scanIdOf(plan, "orders")
    val sLineitem = scanIdOf(plan, "lineitem")
    // the orders-side unit must finish early enough for the lineitem-side unit
    val tuner = new AutoTuner(Map(
      sOrders -> queryDeadline * 0.4,
      sLineitem -> queryDeadline * 0.95,
    ))
    val res = run(plan, costs, 3, 2, tuner = Some(tuner), maxTime = queryDeadline * 10)
    (res, tuner, plan)
  }

  // ------------------------------------------------------------ reports (jobs and benches)

  /** Print a baseline and a tuned run, the reduction, and the paper's figures
    * beside them; returns the reduction.
    */
  def printReduction(baseLabel: String, base: SimResult, tunedLabel: String, tuned: SimResult,
                     paper: String): Double = {
    val reduction = 1.0 - tuned.duration / base.duration
    println(f"$baseLabel%-22s ${base.duration}%8.2fs")
    println(f"$tunedLabel%-22s ${tuned.duration}%8.2fs")
    println(f"reduction: ${reduction * 100}%.2f%%   (paper: $paper)")
    reduction
  }

  /** Print a decision log, one rendered decision per line. */
  def printDecisions(log: Seq[Decision]): Unit =
    log.foreach(d => println(f"  ${d.at}%8.1fs ${d.render}"))

  /** Print each prediction check: the what-if estimate next to the outcome. */
  def printPredictionChecks(checks: Seq[PredictionCheck]): Unit = checks.foreach { ck =>
    println(f"S${ck.stageId} at ${ck.atTime}%7.1fs: toDop=${ck.toDop} " +
      f"T_remain=${ck.prediction.tRemainNow}%7.1fs T_build=${ck.prediction.tTuning}%6.1fs " +
      f"n_f=${ck.prediction.nfGranted}%4.1f predicted end=${ck.predictedFinish}%7.1fs " +
      f"actual end=${ck.actualFinish}%7.1fs err=${ck.errorFrac * 100}%5.1f%%")
  }

  /** Print Table 1: per-table partitioning scheme and sizes, then the total. */
  def printTable1(rows: Seq[Table1Row]): Unit = {
    println(f"${"Table"}%-9s | ${"Partitioning scheme"}%-22s | ${"Table size"}%10s | ${"Split size"}%10s")
    rows.foreach(r => println(f"${r.table}%-9s | ${r.scheme}%-22s | " +
      f"${Bytes.human(r.tableBytes)}%10s | ${Bytes.human(r.splitBytes)}%10s"))
    println(f"Total: ${rows.map(_.tableBytes).sum / 1e9}%.1f virtual GB (paper: 107 GB at SF100)")
  }

  /** Print Table 2: each DOP switch's total, shuffle and build time. */
  def printTable2(switches: Seq[SwitchRecord]): Unit = {
    println(f"${"DOP switching"}%-14s | ${"Total time"}%10s | ${"Shuffle time"}%12s | ${"Build time"}%10s")
    switches.foreach(s => println(f"${s"${s.fromDop} -> ${s.toDop}"}%-14s | " +
      f"${s.totalSeconds}%9.2fs | ${s.shuffleSeconds}%11.2fs | ${s.buildSeconds}%9.2fs"))
  }
}
