package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable.ArrayBuffer
import repro.engine.Data.Row

class BuffersSpec extends AnyFunSuite {
  private val c = TestRig.costs
  private def node(id: Int = 0) = { val n = new Node(id, 4, c); n.resetTick(1.0); n }
  private def r(v: Long): Row = Array[Any](v)

  private def mkQueue(prod: Node = node(0), cons: Node = node(1)) =
    new ElasticQueue(prod, cons, c, () => 8.0)

  test("elastic queue starts at one page and backpressures when full") {
    val q = mkQueue()
    assert(q.capacity == c.pageRows)
    var accepted = 0
    while (q.offer(r(accepted))) accepted += 1
    assert(accepted == c.pageRows)
    assert(q.free == 0)
  }

  test("poll drains in FIFO order and counts consumption") {
    val q = mkQueue()
    (1L to 5L).foreach(i => q.offer(r(i)))
    val buf = ArrayBuffer[Row]()
    assert(q.poll(3, buf) == 3)
    assert(buf.map(_(0)) == ArrayBuffer(1L, 2L, 3L))
    assert(q.consumed == 3)
    assert(q.poll(10, buf) == 2)
  }

  test("resize turns the buffer up when drained dry (bottleneck signal)") {
    val q = mkQueue()
    (1L to 10L).foreach(i => q.offer(r(i)))
    val buf = ArrayBuffer[Row]()
    q.poll(100, buf)
    val cap0 = q.capacity
    q.resizeToRate() // empty + consumed>0 → turn-up
    assert(q.turnUps == 1)
    assert(q.capacity >= cap0)
  }

  test("resize does not turn up a populated buffer (compute bottleneck)") {
    val q = mkQueue()
    (1L to 20L).foreach(i => q.offer(r(i)))
    val buf = ArrayBuffer[Row]()
    q.poll(5, buf)
    q.resizeToRate()
    assert(q.turnUps == 0)
  }

  test("capacity tracks twice the window consumption") {
    val q = mkQueue()
    var sent = 0L
    // saturate several windows of consumption
    (1 to 3).foreach { _ =>
      while (q.free > 0) { q.offer(r(sent)); sent += 1 }
      val buf = ArrayBuffer[Row]()
      q.poll(Int.MaxValue, buf)
      q.resizeToRate()
    }
    assert(q.capacity > c.pageRows) // grew beyond the initial page
  }

  test("closed queue rejects offers and reports endedAndEmpty when drained") {
    val q = mkQueue()
    q.offer(r(1))
    q.markEnd()
    assert(!q.offer(r(2)))
    assert(q.closed && !q.endedAndEmpty)
    val buf = ArrayBuffer[Row]()
    q.poll(10, buf)
    assert(q.endedAndEmpty)
  }

  test("cross-node offers consume NIC budget on both ends") {
    val p = node(0); val cn = node(1)
    p.netBudget = 16.0; cn.netBudget = 16.0 // room for 2 rows of 8 bytes
    val q = new ElasticQueue(p, cn, c, () => 8.0)
    assert(q.offer(r(1)) && q.offer(r(2)))
    assert(!q.offer(r(3))) // budgets exhausted
    assert(p.netBudget <= 0 && cn.netBudget <= 0)
  }

  test("same-node offers are free of NIC charges") {
    val n = node(0)
    n.netBudget = 0.0
    val q = new ElasticQueue(n, n, c, () => 8.0)
    assert(q.offer(r(1)))
  }

  private def sink(n: Int, prod: Node, cons: Node): IndexedSeq[ElasticQueue] =
    (0 until n).map(_ => new ElasticQueue(prod, cons, c, () => 8.0))

  test("hash routing is stable modulo target count") {
    val p = node(0); val cn = node(1)
    val buf = new OutputBuffer(p, Routing.Hash(0), cached = false)
    val qs = sink(4, p, cn)
    buf.setTargets(qs)
    (0L until 100L).foreach(i => assert(buf.tryEmit(r(i))))
    // key k must land in queue floorMod(hash(k), 4)
    assert(qs.map(_.size).sum == 100)
    val buf2 = ArrayBuffer[Row]()
    qs(1).poll(100, buf2)
    assert(buf2.forall(row => math.floorMod(row(0).hashCode, 4) == 1))
  }

  test("round-robin routing spreads rows and skips full queues") {
    val p = node(0); val cn = node(1)
    val buf = new OutputBuffer(p, Routing.RoundRobin, cached = false)
    val qs = sink(2, p, cn)
    buf.setTargets(qs)
    (0L until 50L).foreach(i => assert(buf.tryEmit(r(i))))
    assert(qs(0).size + qs(1).size == 50)
    assert(qs(0).size > 0 && qs(1).size > 0)
  }

  test("broadcast routing replicates to every target") {
    val p = node(0); val cn = node(1)
    val buf = new OutputBuffer(p, Routing.Broadcast, cached = true)
    val qs = sink(3, p, cn)
    buf.setTargets(qs)
    (0L until 10L).foreach(i => assert(buf.tryEmit(r(i))))
    assert(qs.forall(_.size == 10))
    assert(buf.cache.get.size == 10) // cached once, not per target
    // all or nothing: a NIC-starved target refuses the row for every target
    val starved = node(2); starved.netBudget = 0.0
    buf.addTarget(new ElasticQueue(p, starved, c, () => 8.0))
    val budgets = (p.netBudget, cn.netBudget)
    assert(!buf.tryEmit(r(10)))
    assert(qs.forall(_.size == 10) && buf.cache.get.size == 10 && (p.netBudget, cn.netBudget) == budgets)
  }

  test("single routing goes to the head target only") {
    val p = node(0); val cn = node(1)
    val buf = new OutputBuffer(p, Routing.Single, cached = false)
    val qs = sink(1, p, cn)
    buf.setTargets(qs)
    (0L until 5L).foreach(i => buf.tryEmit(r(i)))
    assert(qs(0).size == 5 && buf.rowsEmitted == 5)
  }

  test("emit backpressure: full target rejects, canEmit reflects it") {
    val p = node(0); val cn = node(1)
    val buf = new OutputBuffer(p, Routing.Single, cached = false)
    val qs = sink(1, p, cn)
    buf.setTargets(qs)
    var n = 0
    while (buf.tryEmit(r(n))) n += 1
    assert(n == c.pageRows)
    assert(!buf.canEmit)
  }

  test("markEnd relays end pages to all targets") {
    val p = node(0); val cn = node(1)
    val buf = new OutputBuffer(p, Routing.RoundRobin, cached = false)
    val qs = sink(2, p, cn)
    buf.setTargets(qs)
    buf.markEnd()
    assert(buf.ended && qs.forall(_.closed))
  }

  test("target set changes at runtime (buffer-ID array growth)") {
    val p = node(0); val cn = node(1)
    val buf = new OutputBuffer(p, Routing.RoundRobin, cached = false)
    val qs = sink(3, p, cn)
    buf.setTargets(qs.take(1))
    buf.addTarget(qs(1))
    assert(buf.currentTargets.size == 2)
    buf.removeTarget(qs(1))
    assert(buf.currentTargets.size == 1)
    // hash routing would re-partition keys mid-stream: refused
    val hashed = new OutputBuffer(p, Routing.Hash(0), cached = false)
    hashed.setTargets(qs.take(1))
    intercept[IllegalStateException](hashed.addTarget(qs(1)))
    intercept[IllegalStateException](hashed.removeTarget(qs(0)))
  }
}
