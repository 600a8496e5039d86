#include "exec/baselines.h"
#include "exec/join_common.h"

namespace wireframe {

Result<EngineStats> HashJoinEngine::Run(const Database& db,
                                        const Catalog& catalog,
                                        const QueryGraph& query,
                                        const EngineOptions& options,
                                        Sink* sink) {
  CardinalityEstimator estimator(catalog);
  const std::vector<uint32_t> order = OrderByEstimatedGrowth(query, estimator);
  // The build side of every join step runs in morsels on the borrowed
  // pool (Table-1 stays apples-to-apples with the parallel Wireframe
  // phases); a null pool runs them inline.
  return RunMaterializing(db, query, order, kMaxCells, sink, options);
}

}  // namespace wireframe
