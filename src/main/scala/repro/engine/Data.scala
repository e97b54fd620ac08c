package repro.engine

/** Row, schema, split and table primitives for the Accordion engine simulator.
  *
  * Engine rows are untyped `Array[Any]` holding `Long`, `Double`, `String` or
  * `Int` values; dates are carried as ISO `yyyy-MM-dd` strings so that
  * lexicographic comparison equals date comparison on both the engine side and
  * the DuckDB oracle side (whose tables are all VARCHAR).
  *
  * Table rows are read-only: scans hand them downstream without copying, and
  * a loaded table's cells may be shared across rows (one object per repeated
  * value of a column), so writing into a table row would change other rows.
  */
object Data {
  type Row = Array[Any]
}

/** Ordered column names of a row stream; lookup is by name at plan time and by
  * index at execution time.
  */
final case class Schema(names: Vector[String]) {
  private val byName: Map[String, Int] = names.zipWithIndex.toMap
  def idx(name: String): Int =
    byName.getOrElse(name, throw new IllegalArgumentException(s"no column '$name' in $names"))
  def has(name: String): Boolean = byName.contains(name)
  def ++(other: Schema): Schema = Schema(names ++ other.names)
  def size: Int = names.length
}

object Schema {
  def of(names: String*): Schema = Schema(names.toVector)
}

/** A contiguous chunk of a table resident on one data node — the unit the
  * paper's Table 1 partitions tables into ("splits"). `rows` is read in place
  * by the scan and must not be written, nor any row in it; its cells may be
  * shared with other rows of the table.
  */
final case class Split(id: Int, nodeId: Int, rows: Array[Data.Row], bytes: Long)

/** An input table partitioned into splits across data nodes (paper Table 1). */
final case class EngineTable(name: String, schema: Schema, splits: Vector[Split]) {
  def rowCount: Long = splits.map(_.rows.length.toLong).sum
  def bytes: Long = splits.map(_.bytes).sum
  def nodeIds: Vector[Int] = splits.map(_.nodeId).distinct.sorted
  def allRows: Vector[Data.Row] = splits.flatMap(_.rows)
}

/** Rough in-memory byte sizes used for Table-1 style reporting and for NIC
  * accounting (scaled by `CostModel.dataScale`).
  */
object Bytes {
  def ofValue(v: Any): Long = v match {
    case null => 1L
    case s: String => 4L + s.length
    case _: Int => 4L
    case _ => 8L
  }

  def ofRow(r: Data.Row): Long = {
    var b = 0L; var i = 0
    while (i < r.length) { b += ofValue(r(i)); i += 1 }
    b
  }

  def human(b: Long): String =
    if (b >= (1L << 30)) f"${b / (1024.0 * 1024 * 1024)}%.2fGB"
    else if (b >= (1L << 20)) f"${b / (1024.0 * 1024)}%.2fMB"
    else if (b >= (1L << 10)) f"${b / 1024.0}%.1fKB"
    else s"${b}B"
}
