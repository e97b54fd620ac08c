package repro.engine

import repro.engine.Data.Row

/** Hand-built tables, tiny clusters and run helpers for engine unit tests —
  * no SparkSession needed, so these suites run in milliseconds.
  */
object TestRig {
  def costs: CostModel = CostModel.forTests

  def cluster(c: CostModel = costs): Cluster =
    Cluster.default(c, dataN = 2, computeN = 2, cores = 4)

  def mkTable(name: String, cols: Seq[String], splitsByNode: Seq[(Int, Seq[Seq[Any]])]): EngineTable = {
    var id = 0
    val splits = splitsByNode.map { case (node, rows) =>
      val v = rows.map(_.toArray[Any]).toArray
      id += 1
      Split(id - 1, node, v, v.map(Bytes.ofRow).sum.max(1L))
    }.toVector
    EngineTable(name, Schema(cols.toVector), splits)
  }

  /** orders(o_id: Long 0..n-1, o_cust: Long = id % 10), split over nodes 0/1. */
  def ordersT(n: Int): EngineTable =
    mkTable("orders", Seq("o_id", "o_cust"), Seq(0, 1).map { node =>
      node -> (0 until n).filter(_ % 2 == node).map(i => Seq[Any](i.toLong, (i % 10).toLong))
    })

  /** items(i_order: Long = i % orders, i_val: Long = i), split over nodes 0/1. */
  def itemsT(orders: Int, per: Int): EngineTable = {
    val n = orders * per
    mkTable("items", Seq("i_order", "i_val"), Seq(0, 1).map { node =>
      node -> (0 until n).filter(_ % 2 == node).map(i => Seq[Any]((i % orders).toLong, i.toLong))
    })
  }

  def runPlan(plan: QueryPlan,
              stageDop: Int = 1, taskDop: Int = 1,
              overrides: Map[Int, Int] = Map.empty,
              script: Seq[TuningAction] = Nil,
              gate: RequestGate = AcceptAll,
              tuner: Option[TunerHook] = None,
              c: CostModel = costs,
              cl: Cluster = null,
              maxTime: Double = 20000.0): SimResult = {
    val clu = if (cl == null) cluster(c) else cl
    val qe = new QueryExec(plan, clu, c, stageDop, taskDop, overrides)
    new Simulator(qe, script, gate, tuner, maxTime).run()
  }

  /** Canonical sorted row-strings for order-insensitive result comparison. */
  def canon(rows: Seq[Row]): Vector[String] =
    rows.map(_.map {
      case d: Double => f"$d%.6f"
      case x => String.valueOf(x)
    }.mkString("|")).sorted.toVector

  def canon(res: SimResult): Vector[String] = canon(res.rows)
}
