package repro.core

import repro.engine._

/** The DOP tuning request filter (§5.2): blocks requests that are
  * structurally invalid or whose cost cannot be amortized.
  *
  * It first applies the scheduler's structural rules
  * (`DynamicScheduler.refusal`), then the paper's headline rule: a join
  * stage-DOP request is rejected when the estimated remaining time is below
  * the estimated hash-table rebuild time, since tuning would waste resources.
  * Until the scan below has a measured consumption rate there is no estimate,
  * so the request is rejected too; an accepted join request therefore always
  * has a what-if prediction.
  */
final class RequestFilter(predictor: Predictor) extends RequestGate {

  def vet(a: TuningAction, qe: QueryExec, now: Double): Either[String, Unit] =
    DynamicScheduler.refusal(a, qe).toLeft(()).flatMap { _ =>
      (a, qe.stage(a.stageId)) match {
        case (SetStageDop(_, sid, to), j: JoinStageExec) =>
          val tBuild = predictor.buildSeconds(j, to)
          predictor.remainingSeconds(sid) match {
            case None => Left(s"S$sid: no consumption rate measured yet; amortization unknown")
            case Some(tRemain) if tRemain < tBuild =>
              Left(f"S$sid: remaining $tRemain%.2fs < rebuild $tBuild%.2fs — not amortizable")
            case _ => Right(())
          }
        case _ => Right(())
      }
    }
}
