package repro.engine

import org.scalatest.funsuite.AnyFunSuite

class DataSpec extends AnyFunSuite {

  test("schema index lookup and concatenation") {
    val s = Schema.of("a", "b", "c")
    assert(s.idx("a") == 0 && s.idx("c") == 2)
    assert(s.has("b") && !s.has("z"))
    val t = s ++ Schema.of("d")
    assert(t.size == 4 && t.idx("d") == 3)
  }

  test("schema lookup of a missing column fails loudly") {
    val s = Schema.of("a")
    val e = intercept[IllegalArgumentException](s.idx("missing"))
    assert(e.getMessage.contains("missing"))
  }

  test("byte estimates cover common value types") {
    assert(Bytes.ofValue(null) == 1L)
    assert(Bytes.ofValue("abcd") == 8L)
    assert(Bytes.ofValue(42L) == 8L)
    assert(Bytes.ofValue(1.5) == 8L)
    assert(Bytes.ofValue(7) == 4L)
    assert(Bytes.ofRow(Array[Any](42L, "ab")) == 14L)
  }

  test("human-readable byte rendering") {
    assert(Bytes.human(512) == "512B")
    assert(Bytes.human(2048) == "2.0KB")
    assert(Bytes.human(3L * 1024 * 1024) == "3.00MB")
    assert(Bytes.human(5L * 1024 * 1024 * 1024) == "5.00GB")
  }

  test("engine table aggregates over splits") {
    val t = TestRig.ordersT(100)
    assert(t.rowCount == 100)
    assert(t.nodeIds == Vector(0, 1))
    assert(t.allRows.size == 100)
    assert(t.bytes > 0)
    assert(t.splits.map(_.rows.length).sum == 100)
  }

  test("cost model effective scaling") {
    val c = CostModel(dataScale = 1000.0)
    assert(math.abs(c.eff(1e-6) - 1e-3) < 1e-12)
    assert(math.abs(c.effBytes(32.0) - 32000.0) < 1e-9)
    assert(CostModel.forTests.dataScale == 1.0)
  }
}
