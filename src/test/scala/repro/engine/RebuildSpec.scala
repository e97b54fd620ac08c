package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable.ArrayBuffer
import repro.engine.Data.Row

class RebuildSpec extends AnyFunSuite {
  private val c = CostModel.forTests

  test("switch record exposes additive phase durations") {
    val r = SwitchRecord(2, 2, 4, tRequest = 10.0, tShuffleDone = 14.0, tDone = 21.0)
    assert(r.shuffleSeconds == 4.0)
    assert(r.buildSeconds == 7.0)
    assert(r.totalSeconds == 11.0)
    assert(r.toString.contains("S2 2->4"))
  }

  test("shuffle worker partitions its slice by the given function") {
    val rows = (0L until 100L).map(i => Array[Any](i)).toVector
    val staging = Array.fill(4)(new ArrayBuffer[Row]())
    val w = new ShuffleWorker(rows, c, r => (r(0).asInstanceOf[Long] % 4).toInt, staging)
    var guard = 0
    while (!w.done && guard < 10000) { w.advance(1.0); guard += 1 }
    assert(w.done)
    assert(staging.map(_.size).sum == 100)
    staging.zipWithIndex.foreach { case (s, i) =>
      assert(s.forall(_(0).asInstanceOf[Long] % 4 == i))
    }
  }

  test("worker consumes CPU proportional to rows and accumulates sub-row credit") {
    val rows = (0L until 1000L).map(i => Array[Any](i)).toVector
    val staging = Array.fill(1)(new ArrayBuffer[Row]())
    val w = new ShuffleWorker(rows, c, _ => 0, staging)
    val perRow = c.eff(c.shuffleRow)
    // a budget below one row's cost makes no progress but banks credit
    assert(w.advance(perRow / 4) == 0.0)
    assert(w.advance(perRow) > 0.0) // credit + budget crosses the threshold
    var used = 0.0
    while (!w.done) used += w.advance(1.0)
    assert(staging(0).size == 1000)
    assert(math.abs((used + perRow + perRow / 4) - 1000 * perRow) < perRow * 4)
  }

  test("after a partitioned switch, each new task's table holds the keys probe routing sends it") {
    import Dsl._
    import TestRig._
    val cm = c.copy(dataScale = 800.0)
    val plan = Planner.plan(joinP(keep(scan(ordersT(300)), "o_id"),
      keep(scan(itemsT(300, 6)), "i_order", "i_val"), "o_id", "i_order"))
    val j = plan.joinStages.head.id
    val qe = new QueryExec(plan, cluster(cm), cm, 2)
    new Simulator(qe, Seq(SetStageDop(1.5, j, 3))).run()
    val join = qe.stage(j).asInstanceOf[JoinStageExec]
    assert(join.switchLog.map(s => (s.fromDop, s.toDop)) == Seq((2, 3)))
    val tasks = join.activeGroup.tasks.sortBy(_.seq)
    assert(tasks.map(_.hashTable.keyCount).sum == 300)
    for (k <- 0L until 300L; (t, i) <- tasks.zipWithIndex)
      assert((t.hashTable.head(k) >= 0) == (Routing.partition(k, 3) == i), s"key $k in task $i")
    // the probe producers still running at switchover route over the new tasks in seq order
    val switched = join.inputStage.allTasks.filter(_.outputBuffer.currentTargets.size == 3)
    assert(switched.nonEmpty)
    switched.foreach(p => assert(p.outputBuffer.currentTargets.lazyZip(tasks).forall(_ eq _.queueOf(p).get)))
  }

  test("worker with an empty slice is immediately done") {
    val staging = Array.fill(2)(new ArrayBuffer[Row]())
    val w = new ShuffleWorker(Vector.empty, c, _ => 0, staging)
    assert(w.done && !w.runnable)
    assert(w.advance(1.0) == 0.0)
  }
}
