package repro

import org.apache.spark.sql.DataFrame

/** The oracle's own contract, on small hand-built tables: every row and null
  * reaches DuckDB, and wrong values, lost rows and misaliased columns fail
  * loudly with the documented messages.
  */
class OracleSpec extends SparkSpec {
  private lazy val sp = spark
  import sp.implicits._

  private def rejected(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): String =
    intercept[IllegalArgumentException](Oracle.assertEquivalent(sparkDf, sql, tables: _*))
      .getMessage.stripPrefix("requirement failed: ")

  private lazy val pairs = Seq(("1", "x"), ("2", "y"), ("3", "z")).toDF("k", "v")

  test("every row of a 10k-row table is loaded") {
    val big = (0L until 10000L).map(i => (i, s"v$i")).toDF("id", "s")
    Oracle.assertEquivalent(Seq(10000L).toDF("cnt"), "SELECT count(*) AS cnt FROM t", "t" -> big)
    Oracle.assertEquivalent(Seq((0L, 9999L)).toDF("lo", "hi"),
      "SELECT min(CAST(id AS BIGINT)) AS lo, max(CAST(id AS BIGINT)) AS hi FROM t", "t" -> big)
  }

  test("an empty table loads") {
    val empty = Seq.empty[(Long, String)].toDF("id", "s")
    Oracle.assertEquivalent(Seq(0L).toDF("cnt"), "SELECT count(*) AS cnt FROM t", "t" -> empty)
    Oracle.assertEquivalent(empty, "SELECT id, s FROM t", "t" -> empty)
  }

  test("a null input cell is SQL NULL in DuckDB") {
    val withNull = Seq(("1", "a"), ("2", null)).toDF("k", "v")
    Oracle.assertEquivalent(Seq("2").toDF("k"), "SELECT k FROM t WHERE v IS NULL", "t" -> withNull)
    Oracle.assertEquivalent(withNull, "SELECT k, v FROM t", "t" -> withNull)
  }

  test("a changed value is rejected") {
    val changed = Seq(("1", "x"), ("2", "Y"), ("3", "z")).toDF("k", "v")
    assert(rejected(changed, "SELECT k, v FROM t", "t" -> pairs).startsWith("result mismatch (3 vs 3 rows)"))
  }

  test("a missing row is rejected") {
    val short = Seq(("1", "x"), ("3", "z")).toDF("k", "v")
    assert(rejected(short, "SELECT k, v FROM t", "t" -> pairs).startsWith("result mismatch (2 vs 3 rows)"))
  }

  test("a misaliased column is rejected") {
    assert(rejected(Seq(3L).toDF("cnt"), "SELECT count(*) FROM t", "t" -> pairs)
      .startsWith("column mismatch"))
  }

  test("rows whose concatenations collide still match in any order") {
    // Each pair joins to one string, with or without a \u0001 separator;
    // DuckDB returns the rows in the opposite order to the Spark side.
    for (rows <- Seq(Seq(("a", "bc"), ("ab", "c")), Seq(("a", "b\u0001c"), ("a\u0001b", "c")))) {
      val df = rows.toDF("x", "y")
      Oracle.assertEquivalent(df, "SELECT x, y FROM t ORDER BY x DESC", "t" -> df)
    }
  }
}
