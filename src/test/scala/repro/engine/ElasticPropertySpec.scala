package repro.engine

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.engine.Dsl._
import repro.engine.TestRig._

/** The central IQRE correctness invariant, property-tested: for ANY schedule
  * of DOP tuning actions, on any stage kind and in any resource regime, query
  * results equal the untuned run's results. Every run also checks the stage
  * bookkeeping at each tick (`Bookkeeping`).
  */
class ElasticPropertySpec extends AnyFunSuite {
  private val c = CostModel.forTests.copy(dataScale = 400.0)
  private val orders = ordersT(200)
  private val items = itemsT(200, 5) // 1000 probe rows

  private def query(broadcast: Boolean) = {
    val (b, p) = (keep(scan(orders), "o_id"), keep(scan(items), "i_order", "i_val"))
    agg(if (broadcast) joinB(b, p, "o_id", "i_order") else joinP(b, p, "o_id", "i_order"),
      Seq("i_order"), count("cnt"), sum("i_val", "sv"))
  }

  /** Every tunable stage kind: partitioned and broadcast joins, each with and
    * without an elastic shuffle stage under the probe scan.
    */
  private val plans: Vector[QueryPlan] = for {
    broadcast <- Vector(false, true)
    shuffle <- Vector(Set.empty[String], Set("items"))
  } yield Planner.plan(query(broadcast), shuffleStageFor = shuffle)

  /** Resource regimes: calibrated, NIC-starved, and one core per node. */
  private val regimes: Vector[(String, CostModel, CostModel => Cluster)] = Vector(
    ("calibrated", c, cluster(_)),
    ("NIC-starved", c.copy(netBytesPerSec = 5e4), cluster(_)),
    ("1-core nodes", c, cm => Cluster.default(cm, dataN = 2, computeN = 2, cores = 1)),
  )

  /** Checks every stage's bookkeeping at each tick, so right after every
    * applied action: the spawn-order task list, the live-driver sum, the
    * completion flag, and that no output buffer targets a queue twice.
    */
  private object Bookkeeping extends TunerHook {
    def step(now: Double, qe: QueryExec, sched: DynamicScheduler): Unit = qe.stages.foreach { s =>
      def fail(what: String) = throw new IllegalStateException(s"S${s.id} at t=$now: $what")
      if (!s.allTasks.sameElements(s.groups.flatMap(_.tasks))) fail("task list is not groups.flatMap(_.tasks)")
      if (s.liveDriverCount != s.liveTasks.map(_.driverCount).sum) fail("live-driver sum")
      if (s.completed != s.allTasks.forall(_.finished)) fail(s"completed=${s.completed} disagrees with its tasks")
      s.allTasks.foreach { t =>
        val ts = t.outputBuffer.currentTargets
        if (ts.distinct.size != ts.size) fail(s"${t.label} targets a queue twice")
      }
    }
  }

  private def run(plan: QueryPlan, regime: Int, stageDop: Int = 1, taskDop: Int = 1,
                  script: Seq[TuningAction] = Nil): SimResult = {
    val (_, cm, mkCluster) = regimes(regime)
    runPlan(plan, stageDop = stageDop, taskDop = taskDop, script = script, tuner = Some(Bookkeeping),
      c = cm, cl = mkCluster(cm))
  }

  private lazy val expected = canon(runPlan(plans.head, c = c))

  /** Untuned duration per (plan, regime), so actions land mid-run in each. */
  private lazy val untuned: Map[(Int, Int), Double] = (for {
    p <- plans.indices; r <- regimes.indices
  } yield (p, r) -> run(plans(p), r).duration).toMap

  private def checkProp(prop: Prop, n: Int): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(n), prop)
    assert(res.passed, s"property failed: ${res.status}")
  }

  /** `frac` of the untuned run; `stage` indexes the plan's tunable stages. */
  private case class RandomAction(frac: Double, stage: Int, taskLevel: Boolean, to: Int)

  private val genAction: Gen[RandomAction] = for {
    frac <- Gen.choose(0.02, 0.9)
    stage <- Gen.choose(0, 9)
    taskLevel <- Gen.oneOf(true, false)
    to <- Gen.choose(1, 5)
  } yield RandomAction(frac, stage, taskLevel, to)

  private val genCase: Gen[(Int, Int, List[RandomAction])] = for {
    p <- Gen.choose(0, plans.size - 1)
    r <- Gen.choose(0, regimes.size - 1)
    schedule <- Gen.listOfN(4, genAction)
  } yield (p, r, schedule)

  private def stageDopTunable(s: StageDef): Boolean = s match {
    case _: JoinStageDef | _: ShuffleStageDef => true
    case _ => false
  }

  test("untuned runs agree across plan shapes and resource regimes") {
    for (p <- plans.indices; r <- regimes.indices)
      assert(canon(run(plans(p), r)) == expected, s"plan $p in ${regimes(r)._1}")
  }

  test("results are invariant under random DOP tuning schedules") {
    val prop = Prop.forAll(genCase) { case (p, r, schedule) =>
      val plan = plans(p)
      val tunable = plan.stages.filter {
        case _: ScanStageDef => true
        case s => stageDopTunable(s)
      }
      val script: Seq[TuningAction] = schedule.map { a =>
        val s = tunable(a.stage % tunable.size)
        val at = a.frac * untuned((p, r))
        if (a.taskLevel || !stageDopTunable(s)) SetTaskDop(at, s.id, a.to)
        else SetStageDop(at, s.id, a.to)
      }
      val res = run(plan, r, script = script)
      Prop(canon(res) == expected) :| s"plan $p in ${regimes(r)._1}: $script"
    }
    checkProp(prop, 60)
  }

  private def joinId(p: Int): Int = plans(p).joinStages.head.id
  private def shuffleId(p: Int): Int = plans(p).stages.collectFirst { case s: ShuffleStageDef => s.id }.get

  /** Runs `script` at fractions of the untuned run and checks that every
    * action was applied, not ignored, and that results hold.
    */
  private def scripted(p: Int, r: Int)(script: (Double, Int, Int)*): SimResult = {
    val res = run(plans(p), r, script = script.map { case (frac, sid, to) =>
      SetStageDop(frac * untuned((p, r)), sid, to)
    })
    assert(res.requestLog.size == script.size && !res.requestLog.exists(_._2.startsWith("IGNORED")),
      res.requestLog)
    assert(canon(res) == expected)
    res
  }

  test("stage bookkeeping holds after every partitioned switch, broadcast AP/RP and shuffle AP/RP") {
    for (r <- regimes.indices) {
      // plans: 0 partitioned, 1 partitioned + shuffle, 2 broadcast, 3 broadcast + shuffle
      assert(scripted(0, r)((0.3, joinId(0), 3)).switchLog.size == 1)
      assert(scripted(2, r)((0.3, joinId(2), 3), (0.5, joinId(2), 1)).switchLog.size == 1)
      scripted(1, r)((0.2, shuffleId(1), 3), (0.5, shuffleId(1), 1))
    }
  }

  test("a shuffle task added during a broadcast rebuild is targeted once") {
    // same tick: the rebuild is in flight when the shuffle task is wired
    for (r <- regimes.indices)
      assert(scripted(3, r)((0.3, joinId(3), 3), (0.3, shuffleId(3), 2)).switchLog.size == 1)
  }

  test("results are invariant under random initial DOP configurations") {
    val prop = Prop.forAll(Gen.choose(0, plans.size - 1), Gen.choose(0, regimes.size - 1),
      Gen.choose(1, 4), Gen.choose(1, 4)) { (p: Int, r: Int, sd: Int, td: Int) =>
      canon(run(plans(p), r, stageDop = sd, taskDop = td)) == expected
    }
    checkProp(prop, 16)
  }
}
