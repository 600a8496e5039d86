#include <memory>

#include "exec/baselines.h"
#include "exec/join_common.h"
#include "util/thread_pool.h"

namespace wireframe {

Result<EngineStats> HashJoinEngine::Run(const Database& db,
                                        const Catalog& catalog,
                                        const QueryGraph& query,
                                        const EngineOptions& options,
                                        Sink* sink) {
  CardinalityEstimator estimator(catalog);
  const std::vector<uint32_t> order = OrderByEstimatedGrowth(query, estimator);
  // The build side of every join step runs in morsels on the leased pool
  // (Table-1 stays apples-to-apples with the parallel Wireframe phases);
  // threads==1 with no shared runtime runs them inline.
  PoolLease lease(options);
  return RunMaterializing(db, query, order, options.deadline,
                          options.runtime.cancel, kMaxCells, sink,
                          lease.get(), options.runtime.weight);
}

}  // namespace wireframe
