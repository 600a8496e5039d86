#include "exec/baselines.h"
#include "exec/join_common.h"

namespace wireframe {

Result<EngineStats> ColumnarEngine::Run(const Database& db,
                                        const Catalog& catalog,
                                        const QueryGraph& query,
                                        const EngineOptions& options,
                                        Sink* sink) {
  (void)catalog;  // written order: no statistics consulted
  const std::vector<uint32_t> order = OrderAsWrittenConnected(query);
  // Column-at-a-time operators run serially (SupportsThreads() is false):
  // the run keeps its deadline and cancel flag but not its pool.
  EngineOptions serial = options;
  serial.pool = nullptr;
  return RunMaterializing(db, query, order, kMaxCells, sink, serial);
}

}  // namespace wireframe
