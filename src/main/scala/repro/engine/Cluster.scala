package repro.engine

import scala.collection.mutable.ArrayBuffer

/** Anything the node scheduler can give CPU time to: a driver (paper §2,
  * "Driver Execution") or a rebuild shuffle worker (§4.5).
  */
trait Ticker {

  /** Can make progress right now (input available, output not blocked). */
  def runnable: Boolean

  /** Permanently finished; will be removed from its node. */
  def done: Boolean

  /** Consume up to `cpuSeconds` of one core; returns seconds actually used. */
  def advance(cpuSeconds: Double): Double
}

/** One machine of the simulated cluster (paper: c5.2xlarge — 8 vCPU, 10 Gbps).
  *
  * Each tick the node fair-shares `cores * dt` CPU-seconds over its runnable
  * tickers, capping each at `dt` (a driver is one thread and cannot use more
  * than one core). NIC budgets limit cross-node row transfers per tick.
  */
final class Node(val id: Int, val cores: Int, val costs: CostModel) {
  private val tickers = ArrayBuffer[Ticker]()
  /** This tick's runnable tickers; reused so a tick allocates nothing. */
  private val run = ArrayBuffer[Ticker]()

  /** Bytes this node may still send or receive in the current tick. */
  var netBudget: Double = 0.0

  /** Cumulative CPU-seconds consumed — the resource-usage metric (§6.5.2). */
  var busyCoreSeconds: Double = 0.0

  def register(t: Ticker): Unit = tickers += t
  def tickerCount: Int = tickers.size

  def resetTick(dt: Double): Unit = netBudget = costs.netBytesPerSec * dt

  def tick(dt: Double): Unit = {
    run.clear()
    var j = 0
    while (j < tickers.length) { if (tickers(j).runnable) run += tickers(j); j += 1 }
    if (run.nonEmpty) {
      val share = math.min(dt, cores.toDouble * dt / run.size)
      var i = 0
      while (i < run.length) {
        busyCoreSeconds += run(i).advance(share)
        i += 1
      }
    }
    tickers.filterInPlace(!_.done)
  }

  /** Count of tickers that could run this instant (used by the predictor to
    * estimate CPU headroom, §5.3).
    */
  def runnableCount: Int = tickers.count(_.runnable)
}

object Node {

  /** Soft admission: a cross-node transfer is allowed while both NIC budgets
    * are positive; same-node moves are free.
    */
  def netOpen(from: Node, to: Node): Boolean =
    (from eq to) || (from.netBudget > 0 && to.netBudget > 0)

  /** Debit a transfer from both NIC budgets, which may go slightly negative
    * (by one row per target the row was admitted to).
    */
  def debitNet(from: Node, to: Node, bytes: Double): Unit =
    if (from ne to) { from.netBudget -= bytes; to.netBudget -= bytes }

  /** Admit and charge one cross-node transfer. */
  def chargeNet(from: Node, to: Node, bytes: Double): Boolean =
    netOpen(from, to) && { debitNet(from, to, bytes); true }
}

/** The simulated cluster: `dataNodes` hold table splits and run scan tasks
  * (plus their shuffle work); `computeNodes` run all intermediate-stage tasks,
  * assigned round-robin. Mirrors the paper's 10 storage + 10 compute layout.
  */
final class Cluster(val dataNodes: Vector[Node], val computeNodes: Vector[Node]) {
  val nodes: Vector[Node] = dataNodes ++ computeNodes
  private var rr = 0

  def node(id: Int): Node = nodes.find(_.id == id).getOrElse(
    throw new IllegalArgumentException(s"no node $id"))

  def nextComputeNode(): Node = {
    val n = computeNodes(rr % computeNodes.size); rr += 1; n
  }

  def totalCores: Int = nodes.map(_.cores).sum

  def resetTick(dt: Double): Unit = {
    var i = 0
    while (i < nodes.length) { nodes(i).resetTick(dt); i += 1 }
  }

  def tick(dt: Double): Unit = {
    var i = 0
    while (i < nodes.length) { nodes(i).tick(dt); i += 1 }
  }

  def busyCoreSeconds: Double = nodes.map(_.busyCoreSeconds).sum
}

object Cluster {

  /** Paper-shaped cluster: 10 data + 10 compute nodes, 8 cores each. */
  def default(costs: CostModel, dataN: Int = 10, computeN: Int = 10, cores: Int = 8): Cluster = {
    val d = (0 until dataN).map(i => new Node(i, cores, costs)).toVector
    val c = (0 until computeN).map(i => new Node(dataN + i, cores, costs)).toVector
    new Cluster(d, c)
  }
}
