package repro.queries

import repro.SparkSpec
import repro.engine.CostModel

/** Shared TPC-H-lite fixture: collected once per JVM (Spark collect + engine
  * table layout are the expensive part), reused by every Spark-backed suite.
  */
object Fixtures {
  val TestSf = 0.004 // lineitem ≈ 24k rows: big enough to exercise shuffles,
  // small enough that each oracle call re-collects and bulk-loads every table

  lazy val tpch: Tpch = Queries.loadTpch(SparkSpec.shared, TestSf, (0 until 10).toVector)

  /** Unscaled costs: unit-test ticks, real row counts. */
  def costs: CostModel = CostModel.forTests
}
