#include "exec/baselines.h"
#include "exec/join_common.h"

namespace wireframe {

Result<EngineStats> BacktrackEngine::Run(const Database& db,
                                         const Catalog& catalog,
                                         const QueryGraph& query,
                                         const EngineOptions& options,
                                         Sink* sink) {
  const std::vector<uint32_t> order = OrderBySmallestLabel(query, catalog);
  return RunPipelined(db, query, order, sink, options);
}

}  // namespace wireframe
