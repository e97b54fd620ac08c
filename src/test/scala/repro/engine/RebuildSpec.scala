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

  test("worker with an empty slice is immediately done") {
    val staging = Array.fill(2)(new ArrayBuffer[Row]())
    val w = new ShuffleWorker(Vector.empty, c, _ => 0, staging)
    assert(w.done && !w.runnable)
    assert(w.advance(1.0) == 0.0)
  }
}
