package perfbench

import java.nio.file.Files
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.SynthData

/** Smoke-scale runs of every workload: outputs check out, the traced run
  * reproduces the untraced one, and the exact counters repeat bit for bit
  * across runs of one seed.
  */
class PerfBenchSpec extends AnyFunSuite with BeforeAndAfterAll {
  private val workDir = Files.createTempDirectory("perfbench").toFile
  private lazy val spark: SparkSession = Bench.session(new java.io.File(workDir, "spark-local"))

  override def afterAll(): Unit = spark.stop()

  private def smoke(workload: String, seed: Long, trace: Boolean): Report =
    Bench.run(spark, Config(workload, seed, seconds = 0, trace = trace, workDir, Scale.smoke),
      sessionSeconds = 0.0)

  /** Counts that depend only on the input, never on the host or the clock. */
  private val exact = Seq("sparkbridge.load_rows", "engine.ticks", "engine.virtual_s",
    "engine.switches", "engine.rebuild_virtual_s", "core.requests", "core.accepted_frac")

  for (w <- Workloads.names) {
    test(s"$w: per-layer run is correct and its exact counters repeat") {
      val a = smoke(w, seed = 3, trace = true)
      val b = smoke(w, seed = 3, trace = true)
      assert(a.correct && b.correct, s"failed ops: ${a.failed}, ${b.failed}")
      assert(a("fail_frac") == 0.0)
      assert(a("engine.ticks") > 0)
      exact.foreach(m => assert(a(m) == b(m), s"$m: ${a(m)} vs ${b(m)}"))
    }

    test(s"$w: timed run reports every end-to-end metric") {
      val r = smoke(w, seed = 3, trace = false)
      assert(r.correct)
      assert(r.metrics.map(_.name) == Vector("setup_s", "op_s.p50", "ops_per_s", "heap_mb"))
      r.metrics.foreach(m => assert(m.value > 0, m.name))
    }
  }

  test("sim exercises switches and the request filter") {
    val r = smoke("sim", seed = 3, trace = true)
    assert(r("engine.switches") > 0)
    assert(r("core.requests") > 0)
    assert(r("core.tuner_step_s") > 0)
  }

  test("seed 0 generates SynthData's default tables") {
    val sf = Scale.smoke.simSf
    val t = Workloads.load(spark, sf, seed = 0, Tracer.off)
    def rows(df: org.apache.spark.sql.DataFrame) = df.collect().toSeq
    assert(rows(t.lineitemDf) == rows(SynthData.lineitem(spark, sf)))
    assert(rows(t.ordersDf) == rows(SynthData.orders(spark, sf)))
    assert(rows(t.customerDf) == rows(SynthData.customer(spark, sf)))
    assert(rows(t.partDf) == rows(SynthData.part(spark, sf)))
    val t1 = Workloads.load(spark, sf, seed = 1, Tracer.off)
    assert(rows(t1.lineitemDf) != rows(t.lineitemDf))
  }
}
