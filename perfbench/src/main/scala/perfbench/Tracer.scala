package perfbench

import java.io.{BufferedWriter, File, FileOutputStream, OutputStreamWriter}
import java.util.zip.GZIPOutputStream
import scala.collection.mutable

/** In-memory span recorder for one single-threaded run.
  *
  * A span is (name, start, end, parent, op id). Spans are kept in primitive
  * arrays so a span costs two `nanoTime` calls and no allocation; they are
  * written out only when the benchmark ends. A layer's self time is its
  * span's duration minus the part of that interval its child spans cover.
  * A tracer built with `enabled = false` records nothing.
  */
final class Tracer(enabled: Boolean = true) {
  private val names = mutable.ArrayBuffer[String]()
  private val ids = mutable.HashMap[String, Int]()
  private var cap = 1 << 14
  private var nameOf = new Array[Int](cap)
  private var parentOf = new Array[Int](cap)
  private var opOf = new Array[Int](cap)
  private var startNs = new Array[Long](cap)
  private var endNs = new Array[Long](cap)
  private var n = 0
  private var open = -1

  /** Op id stamped on every span begun from now on. */
  var op: Int = 0

  def id(name: String): Int = ids.getOrElseUpdate(name, { names += name; names.size - 1 })

  def begin(name: Int): Int = {
    if (!enabled) return -1
    if (n == cap) grow()
    nameOf(n) = name; parentOf(n) = open; opOf(n) = op
    open = n; n += 1
    startNs(n - 1) = System.nanoTime()
    n - 1
  }

  def end(span: Int): Unit = if (span >= 0) {
    endNs(span) = System.nanoTime()
    open = parentOf(span)
  }

  def span[A](name: Int)(body: => A): A = {
    val s = begin(name)
    try body finally end(s)
  }

  private def grow(): Unit = {
    cap *= 2
    nameOf = java.util.Arrays.copyOf(nameOf, cap)
    parentOf = java.util.Arrays.copyOf(parentOf, cap)
    opOf = java.util.Arrays.copyOf(opOf, cap)
    startNs = java.util.Arrays.copyOf(startNs, cap)
    endNs = java.util.Arrays.copyOf(endNs, cap)
  }

  private def durNs(i: Int): Long = endNs(i) - startNs(i)

  /** Total duration of spans named `name`, in seconds. */
  def seconds(name: String): Double = ids.get(name).fold(0.0) { id =>
    var t = 0L; var i = 0
    while (i < n) { if (nameOf(i) == id) t += durNs(i); i += 1 }
    t / 1e9
  }

  /** Total self time of spans named `name`, in seconds. */
  def selfSeconds(name: String): Double = ids.get(name).fold(0.0) { id =>
    var t = 0L; var i = 0
    while (i < n) {
      if (nameOf(i) == id) t += durNs(i)
      val p = parentOf(i)
      if (p >= 0 && nameOf(p) == id) t -= durNs(i)
      i += 1
    }
    t / 1e9
  }

  /** Gzipped CSV, one span a line, after `header` lines prefixed with `#`. */
  def write(file: File, header: Seq[String]): Unit = {
    file.getParentFile.mkdirs()
    val w = new BufferedWriter(new OutputStreamWriter(
      new GZIPOutputStream(new FileOutputStream(file)), "UTF-8"))
    try {
      header.foreach(h => w.write(s"# $h\n"))
      w.write("span,parent,op,name,start_ns,end_ns\n")
      var i = 0
      while (i < n) {
        w.write(s"$i,${parentOf(i)},${opOf(i)},${names(nameOf(i))},${startNs(i)},${endNs(i)}\n")
        i += 1
      }
    } finally w.close()
  }
}

object Tracer {
  val off: Tracer = new Tracer(enabled = false)
}
