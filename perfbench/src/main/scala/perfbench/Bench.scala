package perfbench

import java.io.File
import scala.collection.mutable.ArrayBuffer
import scala.util.Try
import org.apache.spark.sql.SparkSession
import repro.Oracle
import repro.sparkbridge.SparkTables

final case class Metric(name: String, value: Double, unit: String)

/** One run's result: the metrics, the ops attempted and failed, and the
  * host and input facts the numbers depend on.
  */
final case class Report(metrics: Vector[Metric], attempted: Int, failed: Int,
                        info: Vector[(String, String)]) {
  def correct: Boolean = failed == 0
  def apply(name: String): Double = metrics.find(_.name == name).get.value

  def json: String = {
    val ms = metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) throw new IllegalStateException(s"metric is $v") else v.toString
}

/** Run settings. A traced run writes its spans under `workDir`. */
final case class Config(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        workDir: File, scale: Scale = Scale.full)

/** Counts ops attempted and failed; a failure never stops the run. */
final class Tally {
  var attempted = 0
  var failed = 0

  def attempt(what: => String)(check: => Boolean): Unit = {
    attempted += 1
    val ok = try check catch {
      case e: Exception => Console.err.println(s"[perfbench] $what threw: $e"); false
    }
    if (!ok) {
      failed += 1
      Console.err.println(s"[perfbench] $what failed its check")
    }
  }
}

object Bench {

  /** Fixture builds per run, for the median in `setup_s`. */
  private val Setups = 2

  /** Untimed passes over every case, so JIT and lazy set-up settle. */
  private val WarmPasses = 2

  /** Spark as the benchmark runs it: generation parallelism pinned to 4, so
    * the generated rows, and every virtual number, do not depend on the
    * host's core count; `local[k]` with k at most 4 and at most nproc.
    */
  def session(localDir: File): SparkSession = {
    val k = math.min(4, Runtime.getRuntime.availableProcessors)
    val s = SparkSession.builder
      .master(s"local[$k]")
      .appName("perfbench")
      .config("spark.default.parallelism", 4)
      .config("spark.sql.leafNodeDefaultParallelism", 4)
      .config("spark.sql.shuffle.partitions", 8)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", localDir.getAbsolutePath)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def now: Long = System.nanoTime()
  private def secondsSince(t: Long): Double = (System.nanoTime() - t) / 1e9

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** One op: the case's engine run plus its correctness check. */
  private def op(spark: SparkSession, f: Fixture, i: Int, tr: Tracer): Boolean = {
    val o = f.cases(i).runWhole()
    if (f.oracleTables.isEmpty) Workloads.resultsMatch(o.res.rows, f.expected(i))
    else oracleCheck(spark, f, i, o, tr)
  }

  /** `SparkTables.toDf` → `Oracle.assertEquivalent`, as `OracleEquivalenceSpec` does. */
  private def oracleCheck(spark: SparkSession, f: Fixture, i: Int, o: Outcome, tr: Tracer): Boolean = {
    val df = tr.span(tr.id("sparkbridge.to_df"))(SparkTables.toDf(spark, o.res.schema, o.res.rows))
    val dfs = f.tpch.dfs.toMap
    val tables = f.oracleTables(i).map(n => n -> dfs(n))
    tr.span(tr.id("oracle.assert"))(Oracle.assertEquivalent(df, f.cases(i).sql, tables: _*))
    true
  }

  def run(spark: SparkSession, cfg: Config, sessionSeconds: Double): Report = {
    val tally = new Tally
    val tr = new Tracer(enabled = cfg.trace)

    // ---- set-up: fixture built `Setups` times, then warm-up passes
    val builds = ArrayBuffer[Double]()
    def build(): Fixture = {
      val t0 = now
      val f = Workloads.fixture(spark, cfg.workload, cfg.scale, cfg.seed, tr)
      builds += secondsSince(t0)
      f
    }
    (1 until Setups).foreach(_ => build())
    val f = build()
    val n = f.cases.size
    val oracle = f.oracleTables.nonEmpty
    // The seed picks the case the timed loop and the traced oracle step
    // start at, so that across seeds every oracle_suite case reaches the
    // oracle.
    val start = Math.floorMod(cfg.seed, n.toLong).toInt
    val passes = (1 to WarmPasses).map { _ =>
      val p0 = now
      for (i <- 0 until n) {
        val c = f.cases(i)
        tally.attempt(s"warm-up ${c.name}")(Workloads.resultsMatch(c.runWhole().res.rows, f.expected(i)))
      }
      secondsSince(p0)
    }
    // One full oracle op on the workload's own tables, so that lazy
    // first-use oracle work falls in set-up, not in the timed op. It is
    // always case 0, which loads every table: the heap an op leaves behind
    // depends on its case, and `heap_mb` is measured next.
    val o0 = now
    if (oracle) tally.attempt(s"warm-up oracle ${f.cases(0).name}")(op(spark, f, 0, Tracer.off))
    val warmSeconds = passes.sum + secondsSince(o0)
    val setupSeconds = sessionSeconds + median(builds.toSeq) + warmSeconds
    Console.err.println(f"[perfbench] set-up: session $sessionSeconds%.2f s, fixture builds " +
      secs(builds.toSeq) + " s, warm-up passes " + secs(passes) +
      f" s, oracle warm-up ${secondsSince(o0)}%.2f s")
    val heapMb = retainedHeapMb()

    val simCosts = if (oracle) Workloads.oracleCosts else Workloads.simCosts
    val info = Vector(
      "workload" -> cfg.workload, "seed" -> cfg.seed.toString,
      "sf" -> (if (oracle) cfg.scale.oracleSf else cfg.scale.simSf).toString,
      "data_scale" -> simCosts.dataScale.toString,
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "spark_master" -> spark.sparkContext.master,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "cases" -> f.cases.map(_.name).mkString(" "))

    if (!cfg.trace) Report(timed(spark, cfg, f, start, tally, setupSeconds, heapMb),
      tally.attempted, tally.failed, info)
    else {
      val (metrics, perCase) = layers(spark, cfg, f, start, tally, tr)
      tr.write(new File(cfg.workDir, s"trace-${cfg.workload}-seed${cfg.seed}.csv.gz"),
        (info ++ perCase).map { case (k, v) => s"$k=$v" })
      Report(metrics, tally.attempted, tally.failed, info ++ perCase)
    }
  }

  private def secs(xs: Seq[Double]): String = xs.map(x => f"$x%.2f").mkString("[", ", ", "]")

  /** Heap still in use after set-up: the least used heap over a few full
    * GCs 100 ms apart, because Spark drops the blocks that carried large
    * task results (the oracle's table collects) asynchronously.
    */
  private def retainedHeapMb(): Double = {
    val mem = java.lang.management.ManagementFactory.getMemoryMXBean
    val used = (1 to 5).map { _ =>
      Thread.sleep(100)
      System.gc()
      mem.getHeapMemoryUsage.getUsed
    }
    val mb = used.map(_ / (1024.0 * 1024.0))
    Console.err.println(s"[perfbench] heap after full GCs: ${secs(mb)} MB")
    mb.min
  }

  /** End-to-end metrics: a closed loop of ops from case `start` on,
    * untraced. Sim workloads stop only at the end of a pass over every case,
    * so each run weighs the cases alike; an oracle op is long enough to stop
    * after any op.
    */
  private def timed(spark: SparkSession, cfg: Config, f: Fixture, start: Int, tally: Tally,
                    setupSeconds: Double, heapMb: Double): Vector[Metric] = {
    val n = f.cases.size
    val oracle = f.oracleTables.nonEmpty
    val times = ArrayBuffer[Double]()
    val t0 = now
    var i = 0
    while (i == 0 || secondsSince(t0) < cfg.seconds || (!oracle && i % n != 0)) {
      val c = (start + i) % n
      val s = now
      tally.attempt(s"op ${f.cases(c).name}")(op(spark, f, c, Tracer.off))
      times += secondsSince(s)
      i += 1
    }
    val wall = secondsSince(t0)
    Console.err.println(s"[perfbench] timed: $i ops in ${"%.2f".format(wall)} s, op seconds " + secs(times.toSeq))
    Vector(
      Metric("setup_s", setupSeconds, "s"),
      Metric("op_s.p50", median(times.toSeq), "s"),
      Metric("ops_per_s", i / wall, "1/s"),
      Metric("heap_mb", heapMb, "MB"),
    )
  }

  /** Per-layer metrics. Each round runs every case layer by layer untraced
    * and steps it traced, back to back; which of the two goes first
    * alternates from case to case and round to round, so neither gets the
    * warmer JIT. The traced run must reproduce the untraced virtual
    * duration, rows, switch log and tick count. Oracle workloads then check
    * one case with the oracle, from case `start` on. The first round also
    * checks the layered run against the case's `Experiments` call. Times are
    * per op. Also returns each case's exact counts, for the record.
    */
  private def layers(spark: SparkSession, cfg: Config, f: Fixture, start: Int, tally: Tally,
                     tr: Tracer): (Vector[Metric], Vector[(String, String)]) = {
    val n = f.cases.size
    val oracle = f.oracleTables.nonEmpty
    val untraced = ArrayBuffer[Outcome]()
    var ticks = 0L
    var nTraced = 0
    var nOracle = 0
    val t0 = now
    var round = 0
    while (round == 0 || secondsSince(t0) < cfg.seconds) {
      val outs = (0 until n).map { i =>
        val c = f.cases(i)
        def plain(): Outcome = {
          tr.op += 1
          val o = Layers.run(c, tr)
          tally.attempt(s"layered ${c.name}")(Workloads.resultsMatch(o.res.rows, f.expected(i)))
          untraced += o
          ticks += o.ticks(c)
          o
        }
        def stepped(): Try[(Outcome, Long)] = { tr.op += 1; Try(Layers.traced(c, tr)) }
        val (o, s) = if ((round + i) % 2 == 0) { val o = plain(); (o, stepped()) }
                     else { val s = stepped(); (plain(), s) }
        tally.attempt(s"traced ${c.name}") {
          val (t, steps) = s.get
          nTraced += 1
          Layers.sameRun(t.res, o.res) && steps == o.ticks(c) &&
            Workloads.resultsMatch(t.res.rows, f.expected(i))
        }
        if (round == 0 && c.whole.isDefined)
          tally.attempt(s"${c.name} layered = whole")(Layers.sameRun(o.res, c.runWhole().res))
        o
      }
      if (oracle) {
        val i = (start + round) % n
        tr.op += 1
        tally.attempt(s"oracle ${f.cases(i).name}")(oracleCheck(spark, f, i, outs(i), tr))
        nOracle += 1
      }
      round += 1
    }
    val nUntraced = untraced.size
    def perOp(total: Double, count: Int) = if (count == 0) 0.0 else total / count
    def perUntraced(x: Outcome => Double) = untraced.map(x).sum / nUntraced
    def traced(name: String) = Metric(name + "_s", perOp(tr.selfSeconds(name), nTraced), "s")
    val perCase = f.cases.lazyZip(untraced).map { (c, o) =>
      s"case.${c.name}" -> (s"ticks=${o.ticks(c)} virtual_s=${o.res.duration} " +
        s"switches=${o.res.switchLog.size} requests=${o.requests.vetted} accepted=${o.requests.accepted}")
    }
    val requests = untraced.map(_.requests.vetted).sum
    val runSeconds = tr.seconds("engine.run")
    val metrics = Vector(
      Metric("sparkbridge.load_s", tr.seconds("sparkbridge.load") / Setups, "s"),
      Metric("sparkbridge.load_rows", f.loadedRows.toDouble, "rows"),
      Metric("planner.plan_s", perOp(tr.seconds("planner.plan"), nUntraced + nTraced), "s"),
      Metric("engine.init_s", perOp(tr.seconds("engine.init"), nUntraced + nTraced), "s"),
      Metric("engine.run_s", runSeconds / nUntraced, "s"),
      Metric("engine.ticks", ticks.toDouble / nUntraced, "ticks"),
      Metric("engine.virtual_s", perUntraced(_.res.duration), "s"),
      Metric("engine.us_per_tick", runSeconds * 1e6 / ticks, "us"),
      traced("engine.tick"),
      traced("engine.bookkeeping"),
      traced("engine.housekeeping"),
      traced("engine.elastic"),
      traced("engine.reset"),
      traced("metrics.sample"),
      traced("core.tuner_step"),
      Metric("engine.switches", perUntraced(_.res.switchLog.size.toDouble), "count"),
      Metric("engine.rebuild_virtual_s", perUntraced(_.res.switchLog.map(_.totalSeconds).sum), "s"),
      Metric("core.requests", requests.toDouble / nUntraced, "count"),
      Metric("core.accepted_frac",
        perOp(untraced.map(_.requests.accepted).sum.toDouble, requests), "frac"),
      Metric("sparkbridge.to_df_s", perOp(tr.seconds("sparkbridge.to_df"), nOracle), "s"),
      Metric("oracle.assert_s", perOp(tr.seconds("oracle.assert"), nOracle), "s"),
      Metric("trace.overhead_frac",
        perOp(tr.seconds("engine.loop"), nTraced) / (runSeconds / nUntraced) - 1, "frac"),
      Metric("fail_frac", tally.failed.toDouble / tally.attempted, "frac"),
    )
    (metrics, perCase)
  }
}
