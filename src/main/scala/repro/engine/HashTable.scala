package repro.engine

import repro.engine.Data.Row

/** Per-task join hash table. In a partitioned join each task holds the keys
  * hashing to its partition; in a broadcast join every task holds the full
  * build side. `ready` flips once the task's build pipeline finishes — probe
  * drivers are gated on it (execution dependency, §4.1).
  *
  * Join keys are `Long`s (every suite key is a bigint id), so the table is
  * open addressing over flat arrays, with linear probing and the fmix64
  * finaliser as hash. `slots` interleaves each slot's key (at 2s) with its
  * first row's index + 1 (at 2s + 1; 0 marks an empty slot), so a probe reads
  * one cache line per slot. Build rows live in `rows`, chained per key through
  * `next` in insertion order, which is the order a probe emits them in. A key
  * of any other type fails loudly: a silent generic path would hide a plan
  * whose key columns are not the ids the cost model assumes.
  */
final class JoinHashTable {
  private var slots = new Array[Long](2 * JoinHashTable.InitialSlots)
  private var tails = new Array[Int](JoinHashTable.InitialSlots)
  private var mask = JoinHashTable.InitialSlots - 1
  private var rows = new Array[Row](JoinHashTable.InitialSlots)
  private var next = new Array[Int](JoinHashTable.InitialSlots)
  private var nRows = 0
  private var nKeys = 0

  def rowCount: Long = nRows
  def keyCount: Int = nKeys

  def insert(key: Any, row: Row): Unit = {
    val k = JoinHashTable.longKey(key)
    if (nRows == rows.length) {
      rows = java.util.Arrays.copyOf(rows, 2 * nRows)
      next = java.util.Arrays.copyOf(next, 2 * nRows)
    }
    val r = nRows
    rows(r) = row
    next(r) = -1
    nRows += 1
    val s = slotOf(k)
    if (slots(2 * s + 1) == 0L) {
      slots(2 * s) = k
      slots(2 * s + 1) = r + 1L
      tails(s) = r
      nKeys += 1
      if (2 * nKeys > mask + 1) grow()
    } else {
      next(tails(s)) = r
      tails(s) = r
    }
  }

  /** Index of `key`'s first row, or -1 if the key is absent. */
  def head(key: Any): Int = (slots(2 * slotOf(JoinHashTable.longKey(key)) + 1) - 1L).toInt

  /** The row at index `i`. */
  def row(i: Int): Row = rows(i)

  /** Index of the row after `i` under the same key, or -1. */
  def nextOf(i: Int): Int = next(i)

  /** Every row under `key`, in insertion order. */
  def get(key: Any): Vector[Row] =
    Iterator.iterate(head(key))(next).takeWhile(_ >= 0).map(rows).toVector

  /** The slot holding `k`, or the empty slot where it would go. */
  private def slotOf(k: Long): Int = {
    var s = (JoinHashTable.fmix64(k) & mask).toInt
    while (slots(2 * s + 1) != 0L && slots(2 * s) != k) s = (s + 1) & mask
    s
  }

  /** Double the slot count, keeping load at most one half. */
  private def grow(): Unit = {
    val (oldSlots, oldTails) = (slots, tails)
    slots = new Array[Long](2 * oldSlots.length)
    tails = new Array[Int](2 * oldTails.length)
    mask = oldTails.length * 2 - 1
    var s = 0
    while (s < oldTails.length) {
      if (oldSlots(2 * s + 1) != 0L) {
        val t = slotOf(oldSlots(2 * s))
        slots(2 * t) = oldSlots(2 * s)
        slots(2 * t + 1) = oldSlots(2 * s + 1)
        tails(t) = oldTails(s)
      }
      s += 1
    }
  }
}

object JoinHashTable {
  private val InitialSlots = 16

  /** The key as a `Long`; any other value is a plan the table does not support. */
  private def longKey(key: Any): Long = key match {
    case k: java.lang.Long => k.longValue
    case _ => throw new IllegalArgumentException(
      s"join key must be a non-null Long, got ${if (key == null) "null" else key.getClass.getName}")
  }

  /** MurmurHash3's 64-bit finaliser: spreads dense and strided ids over every bit. */
  private def fmix64(k: Long): Long = {
    var h = k
    h ^= h >>> 33
    h *= 0xff51afd7ed558ccdL
    h ^= h >>> 33
    h *= 0xc4ceb9fe1a85ec53L
    h ^= h >>> 33
    h
  }
}
