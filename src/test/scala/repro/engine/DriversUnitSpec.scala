package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable.{ArrayBuffer, ArrayDeque}
import repro.engine.Data.Row

class DriversUnitSpec extends AnyFunSuite {

  private def spec = AggSpec(Vector(0), Vector("g"),
    Vector(CountAgg("cnt"), SumAgg("s", 1)))

  test("partial aggregator accumulates per group and flushes accumulator rows") {
    val agg = new PartialAggregator(spec, flushGroups = 1000)
    agg.update(Array[Any]("a", 1.0))
    agg.update(Array[Any]("a", 2.0))
    agg.update(Array[Any]("b", 5.0))
    val out = new ArrayDeque[Row]()
    agg.flush(out)
    val rows = out.toVector.map(_.toVector)
    assert(rows.size == 2)
    val a = rows.find(_.head == "a").get
    assert(a(1) == 2L && a(2) == 3.0) // count acc, sum acc
  }

  test("partial aggregator flush empties state (stateless-izable, §4.1)") {
    val agg = new PartialAggregator(spec, flushGroups = 1000)
    agg.update(Array[Any]("a", 1.0))
    val out = new ArrayDeque[Row]()
    agg.flush(out)
    out.clear()
    agg.flush(out)
    assert(out.isEmpty) // nothing left after a flush
  }

  test("maybeFlush respects the group threshold") {
    val agg = new PartialAggregator(spec, flushGroups = 3)
    val out = new ArrayDeque[Row]()
    agg.update(Array[Any]("a", 1.0)); agg.maybeFlush(out)
    agg.update(Array[Any]("b", 1.0)); agg.maybeFlush(out)
    assert(out.isEmpty) // below threshold
    agg.update(Array[Any]("c", 1.0)); agg.maybeFlush(out)
    assert(out.size == 3) // threshold reached → flushed all groups
  }

  test("routing cost charges shuffle work for hash and broadcast outputs") {
    val c = CostModel.forTests
    assert(Drivers.routingCost(Routing.Hash(0), c) == c.shuffleRow)
    assert(Drivers.routingCost(Routing.Broadcast, c) == c.shuffleRow)
    assert(Drivers.routingCost(Routing.RoundRobin, c) == 0.0)
    assert(Drivers.routingCost(Routing.Single, c) == 0.0)
  }

  test("join hash table stores duplicates and counts rows") {
    val ht = new JoinHashTable
    ht.insert(1L, Array[Any](1L, "x"))
    ht.insert(1L, Array[Any](1L, "y"))
    ht.insert(2L, Array[Any](2L, "z"))
    assert(ht.rowCount == 3 && ht.keyCount == 2)
    assert(ht.get(1L).size == 2)
    assert(ht.get(99L).isEmpty)
  }

  test("a staged probe of one batch emits the rows of a row-at-a-time probe, in order") {
    import TestRig._
    val plan = Planner.plan(Dsl.joinP(Dsl.scan(ordersT(20)), Dsl.scan(itemsT(20, 1)), "o_id", "i_order"))
    val qe = new QueryExec(plan, cluster(), costs)
    qe.init()
    val t = qe.joinStages.head.activeGroup.tasks.head
    // keys 2 and 5 hold three rows each, interleaved with other keys
    val build = Seq(1L, 2L, 2L, 3L, 5L, 2L, 5L, 6L, 5L).zipWithIndex.map { case (k, i) => Array[Any](k, s"b$i") }
    build.foreach(r => t.hashTable.insert(r(0), r))
    t.hashReady = true
    // misses (0, 4, 7), repeated keys (2 twice, 5 three times), single-row hits
    val probe = Seq(2L, 0L, 5L, 1L, 2L, 4L, 5L, 7L, 6L, 5L, 3L).map(k => Array[Any](k, k * 10))
    probe.foreach(t.inputQueues.head.forceOffer)
    val sink = new ElasticQueue(t.node, t.node, costs, () => 0.0)
    sink.capacity = 1000
    t.outputBuffer.setTargets(Vector(sink))
    val d = t.pipeline(PipelineKind.Probe).get.drivers.head
    d.activeAfter = 0.0
    d.advance(1.0)
    assert(t.inputQueues.head.consumed == probe.size) // one pull, one batch
    val got = ArrayBuffer[Row]()
    sink.poll(1000, got)
    val expected = probe.flatMap(p => t.hashTable.get(p(0)).map(_ ++ p))
    assert(expected.size == 18)
    assert(got.map(_.toVector) == expected.map(_.toVector))
  }
}
