package repro.core

import repro.engine.{SetStageDop, SetTaskDop, TuningAction}

/** Parser for the paper's tuning-script notation (§6.1: "Accordion includes a
  * built-in scripting language for controlling query initiation and
  * parallelism adjustments at specified times").
  *
  * Grammar (one action per line or semicolon-separated):
  * {{{
  *   AC S<stage>,<from>,<to>@<t>   // add/set intra-task DOP (drivers)
  *   AP S<stage>,<from>,<to>@<t>   // add intra-stage DOP (tasks)
  *   RP S<stage>,<from>,<to>@<t>   // reduce intra-stage DOP
  * }}}
  * `<from>` is informational (display only), matching the paper's "AC Sn,a,b"
  * notation; the scheduler applies `<to>`. A rendered decision marks every
  * reduction RP, so a rendered intra-task reduction reads back as a stage-DOP
  * action; AC and AP lines round-trip.
  */
object TuningScript {

  private val Line = """(?i)\s*(AC|AP|RP)\s+S(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*@\s*([0-9.]+(?:[eE]-?\d+)?)s?\s*""".r

  def parseLine(s: String): TuningAction = s match {
    case Line(op, stage, _, to, at) =>
      val t = at.toDouble
      op.toUpperCase match {
        case "AC" => SetTaskDop(t, stage.toInt, to.toInt)
        case _ => SetStageDop(t, stage.toInt, to.toInt) // AP and RP both set the target
      }
    case other => throw new IllegalArgumentException(s"cannot parse tuning action: '$other'")
  }

  def parse(script: String): Vector[TuningAction] =
    script.split("[\n;]").map(_.trim).filter(s => s.nonEmpty && !s.startsWith("#"))
      .map(parseLine).toVector.sortBy(_.at)

  /** The script line of `a`, requested when the stage's DOP was `from`. */
  def render(a: TuningAction, from: Int): String = {
    val op = if (a.to < from) "RP" else if (a.isInstanceOf[SetTaskDop]) "AC" else "AP"
    s"$op S${a.stageId},$from,${a.to}@${a.at}"
  }
}
