package repro.bench

import repro.SparkSpec
import repro.experiments.Experiments

/** Reproduces **Table 1: TPCH-SF100 Table Setup — Total 107GB**: per-table
  * partitioning scheme, table size and split size. Our SF=0.1 data stands in
  * for SF100 via dataScale=1000, so reported (virtual) sizes should land near
  * the paper's physical sizes and, more importantly, preserve the ratios.
  */
class Table1Bench extends SparkSpec {

  test("Table 1: partitioning scheme, table sizes, split sizes") {
    val rows = Experiments.table1(spark, BenchFixtures.sf, BenchFixtures.costs)
    BenchFixtures.banner("Table 1 — TPCH table setup (virtual bytes; paper: SF100, 107GB)")
    Experiments.printTable1(rows)
    val total = rows.map(_.tableBytes).sum

    val byName = rows.map(r => r.table -> r).toMap

    // partitioning schemes match the paper exactly
    assert(byName("nation").scheme == "1 node, 1 split/node")
    assert(byName("region").scheme == "1 node, 1 split/node")
    assert(byName("lineitem").scheme == "10 nodes, 7 split/node")
    Seq("supplier", "part", "partsupp", "customer", "orders")
      .foreach(n => assert(byName(n).scheme == "10 nodes, 1 split/node"))

    // size ordering matches the paper: lineitem > orders > partsupp > {part, customer} > supplier > nation > region
    def b(n: String) = byName(n).tableBytes
    assert(b("lineitem") > b("orders"))
    assert(b("orders") > b("partsupp"))
    assert(b("partsupp") > b("part") && b("partsupp") > b("customer"))
    assert(b("part") > b("supplier") && b("customer") > b("supplier"))
    assert(b("supplier") > b("nation") && b("nation") > b("region"))

    // lineitem dominates like the paper's 74GB of 107GB (≈69%)
    val frac = b("lineitem").toDouble / total
    assert(frac > 0.45 && frac < 0.85, s"lineitem fraction $frac")

    // split sizes are table size / split count
    rows.foreach { r =>
      val splits = if (r.table == "lineitem") 70 else if (r.table == "nation" || r.table == "region") 1 else 10
      assert(math.abs(r.splitBytes - r.tableBytes / splits) <= splits)
    }
  }
}
