package repro.engine

import scala.collection.mutable
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.engine.Data.Row

/** The flat join table against a reference map: same rows per key, in
  * insertion order, through every resize, for the key shapes joins produce.
  */
class JoinHashTableSpec extends AnyFunSuite {

  private val edge = Seq(0L, -1L, -2L, 1L, Long.MinValue, Long.MaxValue, Long.MinValue + 1, Long.MaxValue - 1)
  private val edgeKeys = Gen.oneOf(edge)

  /** Keys ≡ r mod d, as one partition of a hash-partitioned join holds. */
  private def strided(d: Int, r: Int): Gen[Long] = Gen.choose(0L, 3000L).map(_ * d + r)

  private val genKeys: Gen[Vector[Long]] = for {
    d <- Gen.choose(1, 8)
    r <- Gen.choose(0, d - 1)
    n <- Gen.choose(0, 3000)
    keys <- Gen.listOfN(n, Gen.frequency(
      8 -> strided(d, r), 1 -> edgeKeys, 1 -> Gen.choose(Long.MinValue, Long.MaxValue)))
  } yield keys.toVector

  private def check(prop: Prop, n: Int): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(n), prop)
    assert(res.passed, s"property failed: ${res.status}")
  }

  test("matches a reference map on duplicates, misses and insertion order across resizes") {
    val prop = Prop.forAll(genKeys, Gen.listOfN(50, Gen.choose(Long.MinValue, Long.MaxValue))) {
      (keys: Vector[Long], probes: List[Long]) =>
        val ht = new JoinHashTable
        val ref = mutable.LinkedHashMap[Long, mutable.ArrayBuffer[Row]]()
        def agrees: Boolean =
          ht.rowCount == ref.valuesIterator.map(_.size).sum && ht.keyCount == ref.size &&
            ref.forall { case (k, rows) =>
              val got = ht.get(k)
              got.size == rows.size && got.lazyZip(rows).forall(_ eq _)
            } &&
            (probes ++ edge).filterNot(ref.contains).forall(k => ht.head(k) == -1 && ht.get(k).isEmpty)
        keys.zipWithIndex.forall { case (k, i) =>
          val row: Row = Array[Any](k, i)
          ht.insert(k, row)
          ref.getOrElseUpdate(k, mutable.ArrayBuffer[Row]()) += row
          Integer.bitCount(i + 1) != 1 || agrees // at every power-of-two size, so across each resize
        } && agrees
    }
    check(prop, 200)
  }

  test("every key with many rows keeps them in insertion order") {
    val ht = new JoinHashTable
    val rows = (0 until 5000).map(i => Array[Any]((i % 7).toLong * 1000003L, i))
    rows.foreach(r => ht.insert(r(0), r))
    assert(ht.rowCount == 5000 && ht.keyCount == 7)
    (0 until 7).foreach { k =>
      assert(ht.get(k * 1000003L).map(_(1)) == (k until 5000 by 7).toVector)
    }
  }

  test("a key that is not a non-null Long is refused, naming its class") {
    val ht = new JoinHashTable
    ht.insert(1L, Array[Any](1L))
    for ((key, name) <- Seq[(Any, String)]((null, "null"), (1, "java.lang.Integer"),
      ("1", "java.lang.String"))) {
      val onInsert = intercept[IllegalArgumentException](ht.insert(key, Array[Any](key)))
      assert(onInsert.getMessage.contains(name))
      val onProbe = intercept[IllegalArgumentException](ht.head(key))
      assert(onProbe.getMessage.contains(name))
    }
    assert(ht.rowCount == 1 && ht.keyCount == 1)
  }
}
