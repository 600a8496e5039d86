#include "core/wireframe.h"

#include "query/shape.h"
#include "util/timer.h"

namespace wireframe {

Status WireframeEngine::EmitEmbeddings(const QueryGraph& query,
                                       const AnswerGraph& ag,
                                       const EngineOptions& options, Sink* sink,
                                       WireframeRunDetail* detail) {
  bool emitted_by_bushy = false;
  if (options_.bushy_phase2) {
    BushyPlanner bushy_planner(query);
    Result<BushyPlan> bushy_plan = bushy_planner.Plan(ag.Stats());
    if (bushy_plan.ok()) {
      BushyExecutor executor(query, ag);
      WF_ASSIGN_OR_RETURN(
          detail->phase2_stats,
          executor.Emit(*bushy_plan, sink, BushyExecutorOptions{}, options));
      emitted_by_bushy = true;
      detail->used_bushy = true;
    }
    // Capped-out bushy DP falls through to the pipelined defactorizer.
  }
  EmbeddingPlanner embedding_planner(query);
  WF_ASSIGN_OR_RETURN(detail->embedding_plan,
                      embedding_planner.PlanJoinOrder(ag.Stats()));
  if (!emitted_by_bushy) {
    Defactorizer defactorizer(query, ag);
    DefactorizerOptions defac_options;
    defac_options.use_chords = options_.chords_in_phase2;
    WF_ASSIGN_OR_RETURN(detail->phase2_stats,
                        defactorizer.Emit(detail->embedding_plan, sink,
                                          defac_options, options));
  }
  return Status::OK();
}

Status WireframeEngine::ExecutePhase2(const QueryGraph& query,
                                      const AnswerGraph& ag,
                                      const EngineOptions& options, Sink* sink,
                                      WireframeRunDetail* detail) {
  const AggregateSpec& spec = query.aggregate();
  if (spec.kind == AggregateKind::kNone) {
    return EmitEmbeddings(query, ag, options, sink, detail);
  }
  Stopwatch aggregate_watch;
  detail->has_aggregate = true;
  AggregatePlanner planner(query);
  const AggregatePlan plan =
      planner.Plan(spec, AggregateExecutor::MaterializedChords(ag));
  if (plan.mode != AggregateMode::kEnumerate) {
    AggregateExecutor executor(query, ag);
    WF_ASSIGN_OR_RETURN(detail->aggregate, executor.Run(plan, spec, options));
  } else {
    EnumeratingAggregateSink fold(spec);
    const Status enumerated =
        EmitEmbeddings(query, ag, options, &fold, detail);
    if (!enumerated.ok()) return enumerated;
    detail->aggregate = fold.TakeResult();
    detail->aggregate.fallback_reason = plan.reason;
  }
  detail->stats.aggregate_seconds = aggregate_watch.ElapsedSeconds();
  if (auto* aggregate_sink = dynamic_cast<AggregateSink*>(sink)) {
    aggregate_sink->OnAggregate(detail->aggregate);
  }
  return Status::OK();
}

Result<WireframeRunDetail> WireframeEngine::RunDetailed(
    const Database& db, const Catalog& catalog, const QueryGraph& query,
    const EngineOptions& options, Sink* sink) {
  WireframeRunDetail detail;
  Stopwatch total;

  // --- Planning: Edgifier (+ Triangulator for cyclic queries). ---
  Stopwatch plan_watch;
  CardinalityEstimator estimator(catalog);
  Edgifier edgifier(query, estimator);
  WF_ASSIGN_OR_RETURN(detail.ag_plan, edgifier.PlanEdgeOrder());

  const QueryShape shape = AnalyzeShape(query);
  detail.cyclic = !shape.acyclic;
  if (!shape.acyclic && options_.triangulate) {
    Triangulator triangulator(query, estimator);
    WF_ASSIGN_OR_RETURN(Chordification chords,
                        triangulator.Triangulate(shape));
    detail.ag_plan.chords = std::move(chords.chords);
    detail.ag_plan.base_triangles = std::move(chords.base_triangles);
    detail.ag_plan.base_triangle_closing_edge =
        std::move(chords.base_triangle_closing_edge);
  }
  detail.plan_seconds = plan_watch.ElapsedSeconds();

  // --- Phase 1: answer-graph generation, then the freeze into the CSR
  // form phase 2 reads. ---
  Stopwatch phase1_watch;
  GeneratorOptions gen_options;
  gen_options.triangulate = options_.triangulate;
  gen_options.edge_burnback = options_.edge_burnback;
  gen_options.lookahead = options_.lookahead;
  AgGenerator generator(db, catalog);
  WF_ASSIGN_OR_RETURN(
      GeneratorResult gen,
      generator.Generate(query, detail.ag_plan, gen_options, options));
  const Stopwatch freeze_watch;
  gen.ag->Freeze(options.pool, options.weight);
  detail.stats.freeze_seconds = freeze_watch.ElapsedSeconds();
  detail.stats.phase1_seconds = phase1_watch.ElapsedSeconds();
  detail.stats.burnback_seconds = gen.burnback_seconds;
  detail.chord_pairs = gen.chord_pairs;

  // --- Phase 2: embeddings, or the factorized aggregate DP. ---
  Stopwatch phase2_watch;
  {
    const Status phase2 =
        ExecutePhase2(query, *gen.ag, options, sink, &detail);
    if (!phase2.ok()) return phase2;
  }
  detail.stats.phase2_seconds = phase2_watch.ElapsedSeconds();

  detail.stats.seconds = total.ElapsedSeconds();
  detail.stats.edge_walks = gen.edge_walks;
  detail.stats.output_tuples = detail.has_aggregate
                                   ? detail.aggregate.NumRows()
                                   : detail.phase2_stats.emitted;
  detail.stats.ag_pairs = gen.ag->TotalQueryEdgePairs();
  detail.stats.pairs_burned = gen.pairs_burned;
  detail.stats.burnback_depth = gen.burnback_depth;
  detail.stats.burnback_handoffs = gen.burnback_handoffs;
  detail.ag = std::move(gen.ag);
  return detail;
}

Result<WireframeRunDetail> WireframeEngine::RunOverAg(
    const QueryGraph& query, const AnswerGraph& ag,
    const EngineOptions& options, Sink* sink) {
  WF_CHECK(ag.IsFrozen()) << "RunOverAg requires a frozen AnswerGraph";
  WireframeRunDetail detail;
  Stopwatch total;

  detail.cyclic = !AnalyzeShape(query).acyclic;

  Stopwatch phase2_watch;
  {
    const Status phase2 = ExecutePhase2(query, ag, options, sink, &detail);
    if (!phase2.ok()) return phase2;
  }
  detail.stats.phase2_seconds = phase2_watch.ElapsedSeconds();

  detail.stats.seconds = total.ElapsedSeconds();
  detail.stats.output_tuples = detail.has_aggregate
                                   ? detail.aggregate.NumRows()
                                   : detail.phase2_stats.emitted;
  detail.stats.ag_pairs = ag.TotalQueryEdgePairs();
  return detail;
}

Result<EngineStats> WireframeEngine::Run(const Database& db,
                                         const Catalog& catalog,
                                         const QueryGraph& query,
                                         const EngineOptions& options,
                                         Sink* sink) {
  WF_ASSIGN_OR_RETURN(WireframeRunDetail detail,
                      RunDetailed(db, catalog, query, options, sink));
  return detail.stats;
}

Result<std::string> WireframeEngine::Explain(const Database& db,
                                             const Catalog& catalog,
                                             const QueryGraph& query) {
  CardinalityEstimator estimator(catalog);
  Edgifier edgifier(query, estimator);
  WF_ASSIGN_OR_RETURN(AgPlan plan, edgifier.PlanEdgeOrder());

  const QueryShape shape = AnalyzeShape(query);
  if (!shape.acyclic && options_.triangulate) {
    Triangulator triangulator(query, estimator);
    WF_ASSIGN_OR_RETURN(Chordification chords,
                        triangulator.Triangulate(shape));
    plan.chords = std::move(chords.chords);
  }
  auto label_name = [&db](LabelId p) { return db.labels().Term(p); };
  std::string out = query.ToString(label_name) + "\n";
  out += shape.acyclic ? "shape: acyclic\n" : "shape: cyclic\n";
  out += plan.ToString(query, label_name);
  return out;
}

}  // namespace wireframe
