package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.engine.{SetStageDop, SetTaskDop}

class TuningScriptSpec extends AnyFunSuite {

  test("parses the paper's AC notation into task-DOP actions") {
    assert(TuningScript.parseLine("AC S3,1,2@20") == SetTaskDop(20.0, 3, 2))
    assert(TuningScript.parseLine("ac s3,1,2@20.5s") == SetTaskDop(20.5, 3, 2))
  }

  test("parses AP and RP into stage-DOP actions") {
    assert(TuningScript.parseLine("AP S1,2,4@100") == SetStageDop(100.0, 1, 4))
    assert(TuningScript.parseLine("RP S1,4,2@150") == SetStageDop(150.0, 1, 2))
  }

  test("parses multi-line scripts sorted by time, skipping comments") {
    val s = TuningScript.parse(
      """# warm up first
        |AP S1,2,4@100
        |AC S3,1,2@20
        |
        |RP S1,4,2@150""".stripMargin)
    assert(s == Vector(SetTaskDop(20.0, 3, 2), SetStageDop(100.0, 1, 4), SetStageDop(150.0, 1, 2)))
  }

  test("parses semicolon-separated scripts") {
    val s = TuningScript.parse("AC S2,1,4@5; AP S2,1,2@9")
    assert(s.size == 2 && s.head.at == 5.0)
  }

  test("rejects malformed lines loudly") {
    intercept[IllegalArgumentException](TuningScript.parseLine("XX S1,1,2@3"))
    intercept[IllegalArgumentException](TuningScript.parseLine("AC 1,2@3"))
  }

  test("render round-trips the operation kind") {
    assert(TuningScript.render(SetTaskDop(5, 2, 3), 1).startsWith("AC S2"))
    assert(TuningScript.render(SetStageDop(5, 2, 3), 1).startsWith("AP S2"))
  }
}
