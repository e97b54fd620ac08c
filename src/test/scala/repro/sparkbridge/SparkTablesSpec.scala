package repro.sparkbridge

import java.lang.Double.doubleToRawLongBits
import org.apache.spark.sql.{DataFrame, Row => SRow}
import org.apache.spark.sql.types._
import repro.SparkSpec
import repro.SynthData
import repro.engine.{Bytes, EngineTable, Schema}

class SparkTablesSpec extends SparkSpec {

  /** Loads `df` and checks the table against a plain cell-by-cell `conv` of
    * the same rows, laid out by the Table 1 rule: the same split ids, nodes,
    * row counts and bytes, and in every cell the same class, `equals` and raw
    * `Double` bits.
    */
  private def loadAndCheck(df: DataFrame, nodeIds: Vector[Int], splitsPerNode: Int): EngineTable = {
    val t = SparkTables.fromDf(df, "t", nodeIds, splitsPerNode)
    val plain = df.collect().map(r => Array.tabulate[Any](r.length)(i => SparkTables.conv(r.get(i))))
    val per = math.max(1, math.ceil(plain.length.toDouble / (nodeIds.size * splitsPerNode)).toInt)
    val chunks = plain.grouped(per).toVector
    assert(t.splits.map(_.id) == chunks.indices.toVector)
    assert(t.splits.map(_.nodeId) == chunks.indices.map(i => nodeIds(i / splitsPerNode % nodeIds.size)))
    assert(t.splits.map(_.rows.length) == chunks.map(_.length))
    assert(t.splits.map(_.bytes) == chunks.map(_.map(Bytes.ofRow).sum))
    val rows = t.allRows
    assert(rows.size == plain.length)
    for ((got, want) <- rows.zip(plain)) {
      assert(got.length == want.length)
      for ((g, w) <- got.zip(want)) {
        assert(java.util.Objects.equals(g, w), s"$g vs $w")
        if (g != null) assert(g.getClass == w.getClass, s"$g: ${g.getClass} vs ${w.getClass}")
        (g, w) match {
          case (g: Double, w: Double) => assert(doubleToRawLongBits(g) == doubleToRawLongBits(w), s"$g vs $w")
          case _ =>
        }
      }
    }
    t
  }

  /** Every cell of `col` that equals an earlier one is that earlier object. */
  private def assertShared(t: EngineTable, col: String): Unit = {
    val c = t.schema.idx(col)
    val first = new java.util.HashMap[Any, Any]()
    val cells = t.allRows.map(_(c))
    cells.foreach(v => first.putIfAbsent(v, v))
    assert(first.size < cells.size, s"$col has no repeats for this test to bite")
    cells.foreach(v => assert(v.asInstanceOf[AnyRef] eq first.get(v).asInstanceOf[AnyRef], s"$col: $v not shared"))
  }

  test("fromDf equals a plain conversion of lineitem and shares repeated values per column") {
    val t = loadAndCheck(SynthData.lineitem(spark, 0.001), (0 until 10).toVector, splitsPerNode = 7)
    Seq("l_shipdate", "l_returnflag", "l_discount").foreach(assertShared(t, _))
  }

  test("fromDf keeps -0.0, NaN bits, nulls and every value type exact while sharing") {
    val nan = java.lang.Double.longBitsToDouble(0x7ff8000000000123L)
    val doubles = Seq[java.lang.Double](0.0, -0.0, 1.5, null, nan, Double.NaN)
    val schema = StructType(Seq(
      StructField("d", DoubleType), StructField("s", StringType), StructField("i", IntegerType),
      StructField("l", LongType), StructField("dt", DateType), StructField("dec", DecimalType(12, 2))))
    val rows = (0 until 60).map { i =>
      SRow(doubles(i % doubles.size), if (i % 7 == 0) null else s"v${i % 4}", i % 3, (i % 5).toLong,
        java.sql.Date.valueOf(f"1995-01-${i % 9 + 1}%02d"), new java.math.BigDecimal(s"${i % 4}.25"))
    }
    val df = spark.createDataFrame(spark.sparkContext.parallelize(rows, 3), schema)
    val t = loadAndCheck(df, Vector(0, 1, 2), splitsPerNode = 2)
    val d = t.schema.idx("d")
    val bits = t.allRows.map(_(d)).collect { case x: Double => doubleToRawLongBits(x) }.toSet
    assert(bits.contains(doubleToRawLongBits(-0.0)) && bits.contains(doubleToRawLongBits(0.0)))
    Seq("d", "s", "i", "l", "dt", "dec").foreach(assertShared(t, _))
  }

  test("fromDf partitions rows into the requested split layout") {
    val df = SynthData.orders(spark, 0.001) // 1500 rows
    val t = SparkTables.fromDf(df, "orders", (0 until 10).toVector, splitsPerNode = 1)
    assert(t.rowCount == 1500L)
    assert(t.splits.size == 10)
    assert(t.nodeIds == (0 until 10).toVector)
    assert(t.schema.names == df.columns.toVector)
  }

  test("fromDf supports multi-split-per-node layouts (lineitem: 7/node)") {
    val df = SynthData.lineitem(spark, 0.001)
    val t = SparkTables.fromDf(df, "lineitem", (0 until 10).toVector, splitsPerNode = 7)
    assert(t.rowCount == 6000L)
    assert(t.splits.size == 70)
    assert(t.splits.groupBy(_.nodeId).forall(_._2.size == 7))
  }

  test("restricting nodes places every split there (§6.4.2 setup)") {
    val df = SynthData.orders(spark, 0.001)
    val t = SparkTables.fromDf(df, "orders", Vector(0, 1), splitsPerNode = 1)
    assert(t.nodeIds == Vector(0, 1))
  }

  test("value conversion: dates become ISO strings, integrals Long, decimals Double") {
    val df = SynthData.lineitem(spark, 0.001).limit(100)
    val t = SparkTables.fromDf(df, "li", Vector(0), 1)
    val r = t.allRows.head
    val s = t.schema
    assert(r(s.idx("l_orderkey")).isInstanceOf[Long])
    assert(r(s.idx("l_linenumber")).isInstanceOf[Long]) // Int → Long
    assert(r(s.idx("l_extendedprice")).isInstanceOf[Double])
    val d = r(s.idx("l_shipdate"))
    assert(d.isInstanceOf[String] && d.asInstanceOf[String].matches("""\d{4}-\d{2}-\d{2}"""))
  }

  test("toDf round-trips engine rows with inferred types") {
    val rows = Seq[Array[Any]](
      Array[Any](1L, 2.5, "x"),
      Array[Any](2L, 3.5, null),
    )
    val df = SparkTables.toDf(spark, Schema.of("a", "b", "c"), rows)
    assert(df.count() == 2)
    assert(df.schema("a").dataType.typeName == "long")
    assert(df.schema("b").dataType.typeName == "double")
    assert(df.schema("c").dataType.typeName == "string")
  }

  test("table bytes estimates are positive and ordered by row count") {
    val orders = SparkTables.fromDf(SynthData.orders(spark, 0.001), "o", Vector(0), 1)
    val cust = SparkTables.fromDf(SynthData.customer(spark, 0.001), "c", Vector(0), 1)
    assert(orders.bytes > cust.bytes)
  }
}
