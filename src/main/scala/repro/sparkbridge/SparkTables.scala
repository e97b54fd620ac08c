package repro.sparkbridge

import org.apache.spark.sql.{DataFrame, Row => SRow, SparkSession}
import org.apache.spark.sql.types._
import repro.engine.{Bytes, Data, EngineTable, Schema, Split}

/** Bridge between Spark DataFrames (the data plane / ground truth) and
  * EngineTables (the simulator's input). Dates become ISO strings so engine,
  * Spark and the DuckDB oracle all compare them identically; integral types
  * become Long, fractional types Double.
  *
  * Loaded tables share equal values within each column: a repeated date,
  * flag or price is one object referenced from every row that holds it, as
  * in a dictionary-coded column page. Sharing is by boxed `equals`, which
  * compares `Double`s bit by bit (so `-0.0` and `0.0` stay apart; Spark
  * already hands over every NaN as the one canonical NaN), and every cell
  * keeps its exact value. A column stops sharing once it has seen more
  * than `ShareCap` distinct values: high-cardinality columns (keys, comments)
  * gain little from it, their dictionaries would grow with the table, and
  * shared cells of such columns would scatter the scan's reads over the heap.
  */
object SparkTables {

  private val ShareCap = 4096

  /** One column's dictionary: the first instance of each value seen, until
    * the column passes `ShareCap` distinct values.
    */
  private final class ColumnShare {
    private var first = new java.util.HashMap[Any, Any]()
    def apply(v: Any): Any =
      if (v == null || first == null) v
      else {
        val seen = first.putIfAbsent(v, v)
        if (seen != null) seen
        else { if (first.size > ShareCap) first = null; v }
      }
  }

  private[sparkbridge] def conv(v: Any): Any = v match {
    case null => null
    case d: java.sql.Date => d.toString
    case d: java.time.LocalDate => d.toString
    case t: java.sql.Timestamp => t.toString
    case b: java.math.BigDecimal => b.doubleValue
    case b: BigDecimal => b.doubleValue
    case i: java.lang.Integer => i.longValue
    case s: java.lang.Short => s.longValue
    case b: java.lang.Byte => b.longValue
    case l: java.lang.Long => l.longValue
    case f: java.lang.Float => f.doubleValue
    case d: java.lang.Double => d.doubleValue
    case s: String => s
    case b: java.lang.Boolean => b.toString
    case other => other.toString
  }

  /** Collect `df` into an EngineTable partitioned as `splitsPerNode` splits on
    * each of `nodeIds` — the paper's Table 1 layout knob.
    */
  def fromDf(df: DataFrame, name: String, nodeIds: Vector[Int], splitsPerNode: Int): EngineTable = {
    val schema = Schema(df.columns.toVector)
    val collected = df.collect()
    val share = Array.fill(schema.size)(new ColumnShare)
    val rows: Array[Data.Row] = collected.map { r =>
      val a = new Array[Any](r.length)
      var i = 0
      while (i < r.length) { a(i) = share(i)(conv(r.get(i))); i += 1 }
      a
    }
    val nSplits = math.max(1, nodeIds.size * splitsPerNode)
    val per = math.max(1, math.ceil(rows.length.toDouble / nSplits).toInt)
    val splits = rows.grouped(per).zipWithIndex.map { case (chunk, i) =>
      Split(i, nodeIds(i / splitsPerNode % nodeIds.size), chunk, chunk.iterator.map(Bytes.ofRow).sum)
    }.toVector
    EngineTable(name, schema, splits)
  }

  /** Engine result rows back to a DataFrame (for Oracle checks). Column types
    * are inferred from the first non-null value per column.
    */
  def toDf(spark: SparkSession, schema: Schema, rows: Seq[Data.Row]): DataFrame = {
    def typeOf(i: Int): DataType =
      rows.iterator.map(_(i)).find(_ != null) match {
        case Some(_: Long) => LongType
        case Some(_: Double) => DoubleType
        case Some(_: Int) => IntegerType
        case _ => StringType
      }
    val fields = schema.names.zipWithIndex.map { case (n, i) => StructField(n, typeOf(i), nullable = true) }
    val srows = rows.map { r =>
      SRow.fromSeq(r.toIndexedSeq.zipWithIndex.map { case (v, i) =>
        (v, fields(i).dataType) match {
          case (null, _) => null
          case (x: Long, LongType) => x
          case (x: Int, LongType) => x.toLong
          case (x: Double, DoubleType) => x
          case (x: Long, DoubleType) => x.toDouble
          case (x: Int, IntegerType) => x
          case (x, StringType) => x.toString
          case (x, _) => x
        }
      })
    }
    spark.createDataFrame(
      spark.sparkContext.parallelize(srows.toSeq, 4),
      StructType(fields))
  }

  /** Date columns → ISO strings on the Spark side, so Oracle table loads match
    * engine values byte for byte.
    */
  def datesAsStrings(df: DataFrame): DataFrame = {
    import org.apache.spark.sql.functions.col
    df.schema.fields.foldLeft(df) { (d, f) =>
      f.dataType match {
        case DateType | TimestampType => d.withColumn(f.name, col(f.name).cast(StringType))
        case _ => d
      }
    }
  }
}
