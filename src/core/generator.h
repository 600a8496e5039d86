#ifndef WIREFRAME_CORE_GENERATOR_H_
#define WIREFRAME_CORE_GENERATOR_H_

#include <functional>
#include <memory>

#include "catalog/catalog.h"
#include "core/answer_graph.h"
#include "exec/engine.h"
#include "planner/plan.h"
#include "planner/triangulator.h"
#include "query/query_graph.h"
#include "storage/database.h"
#include "util/result.h"

namespace wireframe {

/// One observable step of answer-graph generation, for tracing (the
/// Fig. 2 walkthrough bench prints these) and diagnostics.
struct GeneratorTraceStep {
  enum class Kind { kExtension, kChord, kEdgeBurnback };
  Kind kind = Kind::kExtension;
  /// Query-edge index (kExtension) or chord index (kChord); unused for
  /// kEdgeBurnback.
  uint32_t index = 0;
  uint64_t pairs_added = 0;
  uint64_t pairs_burned = 0;
  /// |AG| over query edges after the step.
  uint64_t ag_size_after = 0;
};

/// Phase-1 configuration.
struct GeneratorOptions {
  /// Chordify cycles and materialize chords (cyclic queries only).
  bool triangulate = true;
  /// Run the edge-burnback fixpoint after chord materialization. The
  /// paper's experiments leave this off ("our evaluation over cyclic CQs
  /// is without edge burnback"); on, the AG is ideal even for cyclic CQs.
  bool edge_burnback = false;
  /// One-step lookahead existence filter: when an extension reaches a
  /// previously untouched variable, reject pairs whose fresh endpoint has
  /// no data edge at all for some still-unmaterialized incident pattern.
  /// Sound (such pairs are certain to burn back later) and cheap (one
  /// index probe per future pattern); it converts add-then-burn churn
  /// into never-adding. Off by default here so the raw generator traces
  /// the paper's Fig. 2 exactly; WireframeOptions enables it for the
  /// engine. bench_ablation_lookahead quantifies the effect.
  bool lookahead = false;
  /// Minimum seed-worklist size before node-burnback cascades drain in
  /// parallel on the run's pool (BurnbackOptions::parallel_threshold).
  /// Tests pin this to 1 to force the partitioned drain on small fixtures.
  uint64_t burnback_parallel_threshold = 64;
  /// Optional step observer.
  std::function<void(const GeneratorTraceStep&)> trace;
};

/// Phase-1 output: the answer graph, not yet frozen (its sets still carry
/// their liveness overlays: the engine freezes it before phase 2;
/// paper-trace benches and tests keep driving burnback on it), plus cost
/// accounting.
struct GeneratorResult {
  // Held by pointer: AnswerGraph is move-only and large.
  std::unique_ptr<AnswerGraph> ag;
  uint64_t edge_walks = 0;
  uint64_t pairs_burned = 0;
  uint64_t chord_pairs = 0;
  bool used_chords = false;
  /// Deepest cascade level node burnback reached (seeds are depth 1; 0
  /// when nothing burned). Schedule-dependent under the parallel drain.
  uint32_t burnback_depth = 0;
  /// Cascade deaths handed across worklist partitions by the parallel
  /// drain (0 on serial drains). Schedule-dependent.
  uint64_t burnback_handoffs = 0;
  /// Wall seconds inside node burnback (seed scans + cascade drains,
  /// chord-materialization pruning included).
  double burnback_seconds = 0.0;
};

/// Executes the answer-graph generation phase (paper §3): for each query
/// edge of the plan, an edge-extension step pulls matching labeled edges
/// from G constrained by the current AG node sets, then cascading node
/// burnback removes nodes that failed to extend. For cyclic queries the
/// plan's chords are then materialized; edge burnback optionally culls
/// spurious edges down to the ideal AG.
class AgGenerator {
 public:
  AgGenerator(const Database& db, const Catalog& catalog)
      : db_(&db), catalog_(&catalog) {}

  /// Runs phase 1 under `plan`. The plan's edge_order must be a
  /// permutation of the query's edges. Each extension level partitions
  /// its frontier into morsels on `run`'s pool whose workers fill
  /// thread-local PairSetShards; the shards concatenate in morsel order
  /// at the level barrier, so the AnswerGraph is identical for every pool
  /// size. Node burnback drains on the same pool once a seed list crosses
  /// `options.burnback_parallel_threshold`.
  Result<GeneratorResult> Generate(const QueryGraph& query, const AgPlan& plan,
                                   const GeneratorOptions& options,
                                   const EngineOptions& run = {}) const;

 private:
  const Database* db_;
  const Catalog* catalog_;
};

}  // namespace wireframe

#endif  // WIREFRAME_CORE_GENERATOR_H_
