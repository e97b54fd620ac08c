package perfbench

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col
import repro.SynthData
import repro.core.{AutoTuner, Predictor}
import repro.engine._
import repro.engine.Data.Row
import repro.experiments.{Experiments, ProgressScript, Trigger}
import repro.queries.{Queries, Tpch}
import repro.sparkbridge.SparkTables

/** Input sizes. `full` is what the benchmark measures; `smoke` runs every
  * workload in seconds, for the benchmark's own tests.
  */
final case class Scale(simSf: Double, oracleSf: Double)

object Scale {
  val full: Scale = Scale(simSf = 0.1, oracleSf = 0.004)
  val smoke: Scale = Scale(simSf = 0.002, oracleSf = 0.0005)
}

/** Everything a workload's ops need, built before timing starts. `expected`
  * holds each case's reference rows, computed by Spark SQL; `oracleTables`
  * is non-empty only where ops are checked by the DuckDB oracle.
  */
final case class Fixture(
    cases: Vector[SimCase],
    expected: Vector[Vector[Row]],
    oracleTables: Vector[Seq[String]],
    tpch: Tpch,
    loadedRows: Long,
)

/** The workloads. Each is a closed loop from one client thread. */
object Workloads {
  val names: Vector[String] = Vector("sim", "oracle_suite")

  /** Sim workloads run at the bench calibration: `dataScale` 1000. */
  val simCosts: CostModel = CostModel()

  /** The oracle suite runs as `OracleEquivalenceSpec` does. */
  val oracleCosts: CostModel = CostModel.forTests

  /** Generates the four TPC-H-lite tables from the workload seed and lays
    * them out as `Queries.loadTpch` does. Seed 0 gives `SynthData`'s default
    * per-table seeds (0/1/2/5); seed s shifts each by 100·s.
    */
  def load(spark: SparkSession, sf: Double, seed: Long, tr: Tracer): Tpch = {
    val base = seed * 100
    val li = SynthData.lineitem(spark, sf, base)
    val or = SynthData.orders(spark, sf, base + 1)
    val cu = SynthData.customer(spark, sf, base + 2)
    val pa = SynthData.part(spark, sf, base + 5)
    val nodes = Experiments.DataNodes
    Tpch(
      fromDf(tr, li, "lineitem", nodes, 7),
      fromDf(tr, or, "orders", nodes, 1),
      fromDf(tr, cu, "customer", nodes, 1),
      fromDf(tr, pa, "part", nodes, 1),
      li, or, cu, pa)
  }

  /** `SparkTables.fromDf` under a span; generation runs inside it, because
    * DataFrames are lazy.
    */
  def fromDf(tr: Tracer, df: org.apache.spark.sql.DataFrame, name: String,
             nodes: Vector[Int], perNode: Int): EngineTable =
    tr.span(tr.id("sparkbridge.load"))(SparkTables.fromDf(df, name, nodes, perNode))

  private def rows(t: Tpch): Long =
    Seq(t.lineitem, t.orders, t.customer, t.part).map(_.rowCount).sum

  /** Data generation, table layout, the workload's cases and their reference
    * results.
    */
  def fixture(spark: SparkSession, workload: String, scale: Scale, seed: Long,
              tr: Tracer): Fixture = workload match {
    case "sim" =>
      val t = load(spark, scale.simSf, seed, tr)
      // §6.4.2 layout: orders on two data nodes, as Experiments.shuffleTables
      val st = t.copy(orders = fromDf(tr, t.ordersDf, "orders", Vector(0, 1), 1))
      // §6.5.2: a deadline between the DOP(3,2) pace and what max tuning achieves
      val deadline = Experiments.q3Static(t, simCosts, 3, 2).duration * 0.75
      withReferences(spark, t, rows(t) + st.orders.rowCount,
        staticCases(t, st) ++ elasticCases(t, st, deadline), Nil)
    case "oracle_suite" =>
      val t = load(spark, scale.oracleSf, seed, tr)
      val (cases, tables) = oracleCases(t).unzip
      withReferences(spark, t, rows(t), cases, tables)
    case other =>
      throw new IllegalArgumentException(s"unknown workload '$other'; expected one of ${names.mkString(", ")}")
  }

  private def withReferences(spark: SparkSession, t: Tpch, loaded: Long,
                             cases: Vector[SimCase], tables: Seq[Seq[String]]): Fixture = {
    t.dfs.foreach { case (n, df) => SparkTables.datesAsStrings(df).createOrReplaceTempView(n) }
    val bySql = mutable.HashMap[String, Vector[Row]]()
    val expected = cases.map { c =>
      val names = c.plan().resultSchema.names
      bySql.getOrElseUpdate(c.sql,
        spark.sql(c.sql).select(names.map(col): _*).collect().toVector
          .map(r => Array.tabulate[Any](r.length)(i => engineValue(r.get(i)))))
    }
    Fixture(cases, expected, tables.toVector, t, loaded)
  }

  /** A Spark SQL value as the engine would hold it (see `SparkTables`). */
  private def engineValue(v: Any): Any = v match {
    case i: java.lang.Integer => i.longValue
    case s: java.lang.Short => s.longValue
    case f: java.lang.Float => f.doubleValue
    case b: java.math.BigDecimal => b.doubleValue
    case d: java.sql.Date => d.toString
    case d: java.time.LocalDate => d.toString
    case other => other
  }

  /** Order-insensitive equality with the tolerance `BenchFixtures.resultsMatch`
    * uses: runtime tuning reorders partial-aggregate merges, which perturbs
    * floating-point sums in the last bits.
    */
  def resultsMatch(a: Vector[Row], b: Vector[Row]): Boolean = {
    if (a.size != b.size) return false
    def key(r: Row): String =
      r.collect { case v if !v.isInstanceOf[Double] => String.valueOf(v) }.mkString("|")
    a.sortBy(key).lazyZip(b.sortBy(key)).forall { (x, y) =>
      x.length == y.length && x.indices.forall { i =>
        (x(i), y(i)) match {
          case (d1: Double, d2: Double) =>
            math.abs(d1 - d2) <= 1e-6 * math.max(1.0, math.max(math.abs(d1), math.abs(d2)))
          case (v1, v2) => v1 == v2
        }
      }
    }
  }

  // ------------------------------------------------------------ sim cases

  /** Static-DOP runs: long steady tick loops, no tuner and no rebuild. */
  def staticCases(t: Tpch, st: Tpch): Vector[SimCase] = {
    val c = simCosts
    val q3 = () => Planner.plan(Queries.q3Plan(t))
    val q2j = () => Planner.plan(Queries.q2jPlan(t))
    val qs = () => Planner.plan(Queries.qShufflePlan(st))
    def plain(r: SimResult) = Outcome(r, Requests.none)
    Vector(
      SimCase("q3_dop_1_1", Queries.q3DuckSql, c, q3, 1, 1,
        whole = Some(() => plain(Experiments.q3Static(t, c, 1, 1)))),
      SimCase("q3_dop_3_2", Queries.q3DuckSql, c, q3, 3, 2,
        whole = Some(() => plain(Experiments.q3Static(t, c, 3, 2)))),
      SimCase("q2j_dop_2", Queries.q2jDuckSql, c, q2j, 2, 1,
        whole = Some(() => plain(Experiments.q2jStatic(t, c, 2)))),
      SimCase("qshuffle_baseline", Queries.qShuffleDuckSql, c, qs, 1, 2,
        whole = Some(() => plain(Experiments.shuffleBaseline(st, c)._1)),
        overrides = p => Map(Experiments.joinAboveScan(p, "orders") -> 10)),
    )
  }

  private def progress(triggers: QueryPlan => Seq[Trigger]): QueryPlan => Option[Tuning] = { p =>
    val s = new ProgressScript(triggers(p))
    Some(Tuning(s, () => Requests.of(s)))
  }

  /** The paper's runtime-tuning experiments. `whole` calls the `Experiments`
    * function; the other fields restate its setup so the layers can be timed
    * one by one, and the traced run checks the two agree.
    */
  def elasticCases(t: Tpch, st: Tpch, deadline: Double): Vector[SimCase] = {
    import Experiments.{joinAboveScan, scanIdOf, shuffleStageId}
    val c = simCosts
    val q3 = () => Planner.plan(Queries.q3Plan(t))
    def q3Triggers(mk: (Int, Int) => TuningAction, mid: Seq[(Double, Int)],
                   top: Seq[(Double, Int)])(p: QueryPlan): Seq[Trigger] = {
      val (so, sl) = (scanIdOf(p, "orders"), scanIdOf(p, "lineitem"))
      val (jm, jt) = (joinAboveScan(p, "orders"), joinAboveScan(p, "lineitem"))
      mid.map { case (at, to) => Trigger(so, at, mk(jm, to)) } ++
        top.map { case (at, to) => Trigger(sl, at, mk(jt, to)) }
    }
    val shufflePlan = () => Planner.plan(Queries.qShufflePlan(st), shuffleStageFor = Set("orders"))
    Vector(
      SimCase("q3_intra_task", Queries.q3DuckSql, c, q3, 1, 1,
        whole = Some(() => { val (r, s, _) = Experiments.q3IntraTask(t, c); Outcome(r, Requests.of(s)) }),
        tuner = progress(q3Triggers((j, to) => SetTaskDop(0, j, to),
          Seq(0.10 -> 2, 0.30 -> 4), Seq(0.05 -> 2, 0.20 -> 4, 0.50 -> 8)))),
      SimCase("q3_intra_stage", Queries.q3DuckSql, c, q3, 1, 1,
        whole = Some(() => { val (r, s, _) = Experiments.q3IntraStage(t, c); Outcome(r, Requests.of(s)) }),
        tuner = progress(q3Triggers((j, to) => SetStageDop(0, j, to),
          Seq(0.10 -> 2, 0.40 -> 4), Seq(0.05 -> 2, 0.25 -> 4, 0.50 -> 6, 0.995 -> 8)))),
      SimCase("q2j_switch", Queries.q2jDuckSql, c, () => Planner.plan(Queries.q2jPlan(t)), 2, 1,
        whole = Some(() => { val (r, s, _) = Experiments.q2jSwitch(t, c); Outcome(r, Requests.of(s)) }),
        tuner = progress { p =>
          val (sl, j) = (scanIdOf(p, "lineitem"), joinAboveScan(p, "lineitem"))
          Seq(0.08 -> 4, 0.35 -> 6, 0.60 -> 8, 0.96 -> 10)
            .map { case (at, to) => Trigger(sl, at, SetStageDop(0, j, to)) }
        }),
      SimCase("q3_prediction", Queries.q3DuckSql, c, q3, 2, 3,
        whole = Some(() => Outcome(Experiments.q3Prediction(t, c)._1, Requests.none)),
        tuner = p => Some(Tuning(new PredictThenApply(p), () => Requests.none))),
      SimCase("q3_auto_tune", Queries.q3DuckSql, c, q3, 3, 2,
        whole = Some(() => { val (r, a, _) = Experiments.q3AutoTune(t, c, deadline); Outcome(r, Requests.of(a)) }),
        tuner = { p =>
          val a = new AutoTuner(Map(scanIdOf(p, "orders") -> deadline * 0.4,
            scanIdOf(p, "lineitem") -> deadline * 0.95))
          Some(Tuning(a, () => Requests.of(a)))
        },
        maxTime = deadline * 10),
      SimCase("shuffle_elastic", Queries.qShuffleDuckSql, c, shufflePlan, 1, 2,
        whole = Some(() => { val (r, s, _) = Experiments.shuffleElastic(st, c); Outcome(r, Requests.of(s)) }),
        overrides = p => Map(joinAboveScan(p, "orders") -> 10, shuffleStageId(p) -> 2),
        tuner = progress { p =>
          val (so, sh) = (scanIdOf(p, "orders"), shuffleStageId(p))
          Seq(0.10 -> 4, 0.30 -> 6, 0.50 -> 8)
            .map { case (at, to) => Trigger(so, at, SetStageDop(0, sh, to)) }
        }),
    )
  }

  /** The tuner of `Experiments.q3Prediction`: before each DOP switch the
    * what-if service predicts the stage's remaining time, then the switch is
    * applied unvetted.
    */
  private final class PredictThenApply(p: QueryPlan) extends TunerHook {
    import Experiments.{joinAboveScan, scanIdOf}
    private var collector: InfoCollector = _
    private var predictor: Predictor = _
    private var lastSample = -1e18
    private val fired = mutable.Set[Int]()
    private val triggers = Seq(
      (scanIdOf(p, "orders"), 0.25, joinAboveScan(p, "orders"), 8),
      (scanIdOf(p, "lineitem"), 0.30, joinAboveScan(p, "lineitem"), 8))

    def step(now: Double, qe: QueryExec, sched: DynamicScheduler): Unit = {
      if (collector == null) {
        collector = new InfoCollector(qe); predictor = new Predictor(qe, collector)
      }
      if (now - lastSample >= 1.0) { collector.sample(now); lastSample = now }
      triggers.zipWithIndex.foreach { case ((scan, prog, stage, toDop), i) =>
        if (!fired(i) && qe.stage(scan).asInstanceOf[ScanStageExec].progress >= prog) {
          fired += i
          predictor.predict(stage, toDop).foreach(_ => sched.apply(SetStageDop(now, stage, toDop), now))
        }
      }
    }
  }

  // ------------------------------------------------------------ oracle_suite

  /** `Queries.suite` plus the mid-run Q2J switch, set up exactly as in
    * `OracleEquivalenceSpec`, each with the tables its oracle check loads.
    */
  def oracleCases(t: Tpch): Vector[(SimCase, Seq[String])] = {
    val c = oracleCosts
    val all = Seq("lineitem", "orders", "customer", "part")
    val suite = Queries.suite.map { qc =>
      (SimCase(qc.name, qc.duckSql, c,
        () => Planner.plan(qc.plan(t), shuffleStageFor = qc.shuffleStageFor), 2, 2), all)
    }
    // slow the clock so the switch fires mid-probe, after the build side
    val slow = c.copy(dataScale = 150.0)
    suite :+ ((SimCase("q2j_switch", Queries.q2jDuckSql, slow,
      () => Planner.plan(Queries.q2jPlan(t)), 2, 1,
      script = p => Seq(SetStageDop(4.5, p.joinStages.head.id, 4))), Seq("lineitem", "orders")))
  }
}
