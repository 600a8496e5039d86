#include "exec/baselines.h"
#include "exec/join_common.h"

namespace wireframe {

Result<EngineStats> IndexNestedLoopEngine::Run(const Database& db,
                                               const Catalog& catalog,
                                               const QueryGraph& query,
                                               const EngineOptions& options,
                                               Sink* sink) {
  CardinalityEstimator estimator(catalog);
  const std::vector<uint32_t> order = OrderByEstimatedGrowth(query, estimator);
  return RunPipelined(db, query, order, sink, options);
}

}  // namespace wireframe
