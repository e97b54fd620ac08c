package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.engine.CostModel
import repro.experiments.Experiments
import repro.queries.Queries

/** spark-submit entrypoints, one per evaluation table / experiment.
  *
  * Usage: `spark-submit --class repro.jobs.<Name> repro.jar [scaleFactor]`
  * (scale factor defaults to 0.1; the cost model's dataScale=1000 makes that
  * stand in for the paper's TPC-H SF100 — see DESIGN.md).
  */
object JobUtil {

  /** Run `body` on a Spark session named `name`, stopping it afterwards. */
  def withSpark(name: String)(body: SparkSession => Unit): Unit = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", "64")
      .getOrCreate()
    try body(spark) finally spark.stop()
  }

  def sfOf(args: Array[String]): Double = args.headOption.map(_.toDouble).getOrElse(0.1)

  def costs: CostModel = CostModel()
}

/** Paper Table 1: TPC-H table setup (partitioning scheme, table/split sizes). */
object Table1Job {
  def main(args: Array[String]): Unit = JobUtil.withSpark("table1") { spark =>
    Experiments.printTable1(Experiments.table1(spark, JobUtil.sfOf(args), JobUtil.costs))
  }
}

/** Paper Table 2 + §6.4.1: Q2J DOP switching state-transfer breakdown. */
object Table2Job {
  def main(args: Array[String]): Unit = JobUtil.withSpark("table2") { spark =>
    val t = Queries.loadTpch(spark, JobUtil.sfOf(args), Experiments.DataNodes)
    val static = Experiments.q2jStatic(t, JobUtil.costs, 2)
    val (tuned, script, _) = Experiments.q2jSwitch(t, JobUtil.costs)
    Experiments.printTable2(tuned.switchLog)
    Experiments.printDecisions(script.log)
    Experiments.printReduction("Q2J static DOP 2", static, "Q2J with switching", tuned,
      "1331.99s -> 584.01s, -56.16%")
  }
}

/** §6.2: Q3 intra-task DOP runtime tuning. */
object IntraTaskJob {
  def main(args: Array[String]): Unit = JobUtil.withSpark("intratask") { spark =>
    val t = Queries.loadTpch(spark, JobUtil.sfOf(args), Experiments.DataNodes)
    val static = Experiments.q3Static(t, JobUtil.costs, 1, 1)
    val (tuned, script, _) = Experiments.q3IntraTask(t, JobUtil.costs)
    Experiments.printDecisions(script.log)
    Experiments.printReduction("Q3 static DOP(1,1)", static, "Q3 with AC tuning", tuned,
      "740.34s -> 307.87s, -58.42%")
  }
}

/** §6.3: Q3 intra-stage DOP runtime tuning (DOP switching). */
object IntraStageJob {
  def main(args: Array[String]): Unit = JobUtil.withSpark("intrastage") { spark =>
    val t = Queries.loadTpch(spark, JobUtil.sfOf(args), Experiments.DataNodes)
    val static = Experiments.q3Static(t, JobUtil.costs, 1, 1)
    val (tuned, script, _) = Experiments.q3IntraStage(t, JobUtil.costs)
    tuned.switchLog.foreach(s => println(s"switch: $s"))
    Experiments.printDecisions(script.log)
    Experiments.printReduction("Q3 static DOP(1,1)", static, "Q3 with AP tuning", tuned,
      "740.34s -> 194.76s, -73.71%")
  }
}

/** §6.4.2: elastic shuffle stage with orders confined to two data nodes. */
object ShuffleStageJob {
  def main(args: Array[String]): Unit = JobUtil.withSpark("shufflestage") { spark =>
    val t = Experiments.shuffleTables(spark, JobUtil.sfOf(args))
    val (base, _) = Experiments.shuffleBaseline(t, JobUtil.costs)
    val (elastic, script, _) = Experiments.shuffleElastic(t, JobUtil.costs)
    Experiments.printDecisions(script.log)
    Experiments.printReduction("no shuffle stage", base, "with elastic shuffle", elastic,
      "45.22s -> 30.21s, -33.19%")
  }
}

/** §6.5.1: what-if remaining-time prediction accuracy. */
object PredictionJob {
  def main(args: Array[String]): Unit = JobUtil.withSpark("prediction") { spark =>
    val t = Queries.loadTpch(spark, JobUtil.sfOf(args), Experiments.DataNodes)
    val (_, checks) = Experiments.q3Prediction(t, JobUtil.costs)
    Experiments.printPredictionChecks(checks)
  }
}

/** §6.5.2: automatic DOP tuning under a latency constraint. */
object AutoTuneJob {
  def main(args: Array[String]): Unit = JobUtil.withSpark("autotune") { spark =>
    val t = Queries.loadTpch(spark, JobUtil.sfOf(args), Experiments.DataNodes)
    val static = Experiments.q3Static(t, JobUtil.costs, 3, 2)
    val deadline = args.lift(1).map(_.toDouble).getOrElse(static.duration * 0.75)
    val (tuned, tuner, _) = Experiments.q3AutoTune(t, JobUtil.costs, deadline)
    Experiments.printDecisions(tuner.log)
    println(f"static DOP(3,2) ${static.duration}%.1fs; deadline $deadline%.1fs -> finished " +
      f"${tuned.duration}%.1fs (held ${tuned.allocatedDriverSeconds / tuned.duration}%.1f drivers avg)")
  }
}
