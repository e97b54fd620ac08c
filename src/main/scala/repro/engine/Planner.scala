package repro.engine

import scala.collection.mutable.ArrayBuffer

/** How a stage's task output buffer routes rows to the downstream stage's
  * tasks (paper §4.2.1: shared buffers for round-robin/broadcast/single,
  * shuffle buffers for hash).
  */
sealed trait Routing
object Routing {
  /** Hash-partition on `keyIdx` of the stage's *output* schema. */
  final case class Hash(keyIdx: Int) extends Routing
  /** Least-loaded / round-robin — stateless consumers, freely re-parallelizable. */
  case object RoundRobin extends Routing
  /** Replicate every row to every consumer (broadcast join build side). */
  case object Broadcast extends Routing
  /** All rows to the single task of the consumer (final aggregation). */
  case object Single extends Routing

  /** The one hash partitioning: which of `n` targets gets `key` (null → 0).
    * Probe routing and hash-table rebuilds must agree on it.
    */
  def partition(key: Any, n: Int): Int = math.floorMod(if (key == null) 0 else key.hashCode, n)
}

/** Output side of a stage: routing plus whether the buffer keeps a page cache
  * of everything it emitted (intermediate data caching, §4.5 — required on
  * join build inputs so DOP switching can rebuild hash tables without
  * re-running upstream stages).
  */
final case class OutputDef(routing: Routing, cached: Boolean)

/** Physical stage definitions — the fragment (stage) tree of §2, flattened to
  * a DAG indexed by stage id. Stage 0 is always the output stage; ids then
  * grow roughly top-down so they read like the paper's plans (S1 = top join).
  */
sealed trait StageDef {
  def id: Int
  def outSchema: Schema
  def out: OutputDef
}

/** Scan stage: one task pinned to each data node holding splits of `table`;
  * filter/project/partial-agg are fused into the scan pipeline.
  */
final case class ScanStageDef(
    id: Int,
    table: EngineTable,
    filter: Option[Pred],
    project: Option[Vector[NamedExpr]],
    partialAgg: Option[AggSpec],
    projectedSchema: Schema,
    out: OutputDef,
) extends StageDef {
  def outSchema: Schema = partialAgg.map(_.outSchema).getOrElse(projectedSchema)
}

/** Join stage: build side arrives from `buildStageId` (hash- or broadcast-
  * routed), probe side from `probeStageId`; postFilter/project/partialAgg are
  * fused after the probe.
  */
final case class JoinStageDef(
    id: Int,
    buildStageId: Int,
    probeStageId: Int,
    buildKeyIdx: Int, // in the build input schema
    probeKeyIdx: Int, // in the probe input schema
    buildSchema: Schema,
    probeSchema: Schema,
    broadcast: Boolean,
    postFilter: Option[Pred],
    project: Option[Vector[NamedExpr]],
    partialAgg: Option[AggSpec],
    joinedSchema: Schema, // build ++ probe, after optional project
    out: OutputDef,
) extends StageDef {
  def outSchema: Schema = partialAgg.map(_.outSchema).getOrElse(joinedSchema)
}

/** Elastic shuffle stage (§4.6): a stateless exchange→output pipeline whose
  * only job is to hash-partition rows on behalf of a scan stage, so the
  * partitioning CPU can be spread over more nodes by raising its DOP.
  */
final case class ShuffleStageDef(id: Int, childStageId: Int, schema: Schema, out: OutputDef)
    extends StageDef {
  def outSchema: Schema = schema
}

/** Final aggregation stage; task and stage parallelism fixed at 1 (§4.1). */
final case class FinalAggStageDef(id: Int, childStageId: Int, agg: AggSpec, out: OutputDef)
    extends StageDef {
  def outSchema: Schema = agg.outSchema
}

/** Output stage: collects result rows on the coordinator. */
final case class OutputStageDef(id: Int, childStageId: Int, schema: Schema) extends StageDef {
  def outSchema: Schema = schema
  def out: OutputDef = OutputDef(Routing.Single, cached = false)
}

/** A compiled query: stage defs plus the consumer edge for each stage. */
final case class QueryPlan(stages: Vector[StageDef], resultSchema: Schema) {
  def stage(id: Int): StageDef = stages.find(_.id == id).get
  def scanStages: Vector[ScanStageDef] = stages.collect { case s: ScanStageDef => s }
  def joinStages: Vector[JoinStageDef] = stages.collect { case j: JoinStageDef => j }

  /** Child stage ids feeding `id` (build side first for joins). */
  def childrenOf(id: Int): Vector[Int] = stage(id) match {
    case j: JoinStageDef => Vector(j.buildStageId, j.probeStageId)
    case s: ShuffleStageDef => Vector(s.childStageId)
    case f: FinalAggStageDef => Vector(f.childStageId)
    case o: OutputStageDef => Vector(o.childStageId)
    case _: ScanStageDef => Vector.empty
  }

  /** The stage consuming `id`'s output, if any. */
  def parentOf(id: Int): Option[Int] =
    stages.find(s => childrenOf(s.id).contains(id)).map(_.id)

  def describe: String = stages.sortBy(_.id).map {
    case s: ScanStageDef => s"S${s.id}: scan(${s.table.name})${s.filter.map(f => s" where ${f.desc}").getOrElse("")}${s.partialAgg.map(_ => " +partialAgg").getOrElse("")} -> ${s.out.routing}"
    case j: JoinStageDef => s"S${j.id}: join(build=S${j.buildStageId}, probe=S${j.probeStageId}, ${if (j.broadcast) "broadcast" else "partitioned"})${j.partialAgg.map(_ => " +partialAgg").getOrElse("")} -> ${j.out.routing}"
    case s: ShuffleStageDef => s"S${s.id}: shuffle(S${s.childStageId}) -> ${s.out.routing}"
    case f: FinalAggStageDef => s"S${f.id}: finalAgg(S${f.childStageId})"
    case o: OutputStageDef => s"S${o.id}: output(S${o.childStageId})"
  }.mkString("\n")
}

/** Compiles the logical algebra into the stage DAG.
  *
  * Shape rules (mirroring Presto's fragmenter, §2 "Physical Plan to
  * Fragments"): every scan is its own stage; every join is its own stage fed by
  * two child stages; `LAgg` becomes a partial aggregation fused into its child
  * stage plus a single-task final aggregation stage; `shuffleStageFor` inserts
  * an elastic shuffle stage below the named tables (§4.6).
  */
object Planner {

  def plan(root: LNode, shuffleStageFor: Set[String] = Set.empty): QueryPlan = {
    val stages = ArrayBuffer[StageDef]()
    var nextId = 1 // 0 is reserved for the output stage

    def freshId(): Int = { val i = nextId; nextId += 1; i }

    /** Peel filters/projects down to the base scan or join. */
    def compile(node: LNode, out: OutputDef, partial: Option[AggSpec]): Int = node match {
      case LScan(t) => mkScan(t, None, None, out, partial)
      case LFilter(p, LScan(t)) => mkScan(t, Some(p), None, out, partial)
      case LProject(es, LScan(t)) => mkScan(t, None, Some(es), out, partial)
      case LProject(es, LFilter(p, LScan(t))) => mkScan(t, Some(p), Some(es), out, partial)
      case j: LJoin => mkJoin(j, None, None, out, partial)
      case LFilter(p, j: LJoin) => mkJoin(j, Some(p), None, out, partial)
      case LProject(es, j: LJoin) => mkJoin(j, None, Some(es), out, partial)
      case LProject(es, LFilter(p, j: LJoin)) => mkJoin(j, Some(p), Some(es), out, partial)
      case other =>
        throw new IllegalArgumentException(s"unsupported fragment shape: $other")
    }

    def mkScan(t: EngineTable, f: Option[Pred], prj: Option[Vector[NamedExpr]],
               out: OutputDef, partial: Option[AggSpec]): Int = {
      val projected = prj.map(es => Schema(es.map(_.name))).getOrElse(t.schema)
      val id = freshId()
      if (shuffleStageFor.contains(t.name) && partial.isEmpty) {
        // scan emits round-robin to a dedicated shuffle stage that applies `out`
        val shuffleId = freshId()
        stages += ScanStageDef(id, t, f, prj, None, projected,
          OutputDef(Routing.RoundRobin, cached = false))
        stages += ShuffleStageDef(shuffleId, id, projected, out)
        shuffleId
      } else {
        stages += ScanStageDef(id, t, f, prj, partial, projected, out)
        id
      }
    }

    def mkJoin(j: LJoin, f: Option[Pred], prj: Option[Vector[NamedExpr]],
               out: OutputDef, partial: Option[AggSpec]): Int = {
      val id = freshId()
      val buildSchema = j.build.schema
      val probeSchema = j.probe.schema
      val joined = buildSchema ++ probeSchema
      val buildOut =
        if (j.broadcast) OutputDef(Routing.Broadcast, cached = true)
        else OutputDef(Routing.Hash(buildSchema.idx(j.buildKey)), cached = true)
      val probeOut =
        if (j.broadcast) OutputDef(Routing.RoundRobin, cached = false)
        else OutputDef(Routing.Hash(probeSchema.idx(j.probeKey)), cached = false)
      val buildId = compile(j.build, buildOut, None)
      val probeId = compile(j.probe, probeOut, None)
      val projectedSchema = prj.map(es => Schema(es.map(_.name))).getOrElse(joined)
      val resolvedPrj = prj // expressions were built against `joined` by the DSL
      stages += JoinStageDef(id, buildId, probeId,
        buildSchema.idx(j.buildKey), probeSchema.idx(j.probeKey),
        buildSchema, probeSchema, j.broadcast, f, resolvedPrj, partial,
        projectedSchema, out)
      id
    }

    val resultSchema = root.schema
    root match {
      case a: LAgg =>
        val spec = a.spec
        val finalId = freshId()
        val childId = compile(a.child, OutputDef(Routing.Single, cached = false), Some(spec))
        stages += FinalAggStageDef(finalId, childId, spec,
          OutputDef(Routing.Single, cached = false))
        stages += OutputStageDef(0, finalId, spec.outSchema)
      case other =>
        val childId = compile(other, OutputDef(Routing.Single, cached = false), None)
        stages += OutputStageDef(0, childId, other.schema)
    }
    QueryPlan(stages.toVector.sortBy(_.id), resultSchema)
  }
}
