#ifndef WIREFRAME_CORE_BUSHY_EXECUTOR_H_
#define WIREFRAME_CORE_BUSHY_EXECUTOR_H_

#include "core/answer_graph.h"
#include "core/defactorizer.h"
#include "exec/engine.h"
#include "exec/sink.h"
#include "planner/bushy_planner.h"
#include "query/query_graph.h"
#include "util/result.h"

namespace wireframe {

/// Options for bushy execution.
struct BushyExecutorOptions {
  /// Intermediate-memory budget in binding cells (rows x width); exceeding
  /// it aborts with OutOfRange, mirroring the materializing baselines.
  uint64_t max_cells = 400ull << 20;
};

/// Executes a BushyPlan over the (frozen) answer graph: leaves scan AG
/// edge sets,
/// inner nodes hash-join their children on the shared variables, fully
/// materializing each intermediate (that is what distinguishes the bushy
/// plan space from the pipelined left-deep Defactorizer; the DP's job is
/// to keep those intermediates small).
class BushyExecutor {
 public:
  BushyExecutor(const QueryGraph& query, const AnswerGraph& ag)
      : query_(&query), ag_(&ag) {}

  /// Runs the plan, emitting every embedding to `sink`. The stats reuse
  /// DefactorizerStats: `extensions` counts materialized intermediate
  /// rows (the bushy analogue of tuple-extension work). Work is split on
  /// `run`'s pool into morsels of each join's probe side or shared keys
  /// (per-morsel row chunks concatenated in morsel order, so every
  /// intermediate relation is the same for every pool size) and of the
  /// final emit scan.
  Result<DefactorizerStats> Emit(const BushyPlan& plan, Sink* sink,
                                 const BushyExecutorOptions& options,
                                 const EngineOptions& run = {}) const;

 private:
  const QueryGraph* query_;
  const AnswerGraph* ag_;
};

}  // namespace wireframe

#endif  // WIREFRAME_CORE_BUSHY_EXECUTOR_H_
