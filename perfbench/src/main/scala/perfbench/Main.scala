package perfbench

import java.io.File

/** Runs one workload and prints its metrics, one a line, then a final JSON
  * line with `correct`, `attempted`, `failed` and `metrics`.
  *
  * {{{
  * perfbench.Main --workload sim --seed 0 --seconds 8 --trace 0 --work-dir .bench_build
  * }}}
  *
  * `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
  * per-layer metrics and writes the spans under `--work-dir`.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => usage(s"bad argument: ${other.mkString(" ")}")
    }.toMap
    def opt(k: String): String = opts.getOrElse(k, usage(s"missing --$k"))
    val workload = opt("workload")
    if (!Workloads.names.contains(workload)) usage(s"unknown workload '$workload'")
    val trace = opt("trace") match {
      case "0" => false
      case "1" => true
      case v => usage(s"--trace must be 0 or 1, got '$v'")
    }
    val seed = opt("seed").toLong
    val workDir = new File(opts.getOrElse("work-dir", ".bench_build"))
    val cfg = Config(workload, seed, opt("seconds").toDouble, trace, workDir)

    val t0 = System.nanoTime()
    val spark = Bench.session(new File(workDir, "spark-local"))
    val sessionSeconds = (System.nanoTime() - t0) / 1e9
    val code =
      try {
        val r = Bench.run(spark, cfg, sessionSeconds)
        r.metrics.foreach(m => println(f"${m.name}%-26s ${m.value}%14.6f ${m.unit}"))
        println(s"ops attempted=${r.attempted} failed=${r.failed}")
        r.info.foreach { case (k, v) => println(s"info $k=$v") }
        println(r.json)
        0
      } catch {
        case e: Throwable => e.printStackTrace(); 1
      } finally spark.stop()
    sys.exit(code)
  }

  private def usage(msg: String): Nothing = {
    Console.err.println(s"perfbench: $msg\n" +
      s"usage: --workload <${Workloads.names.mkString("|")}> --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]")
    sys.exit(2)
  }
}
