#include "exec/engine.h"

#include "core/wireframe.h"
#include "exec/baselines.h"
#include "util/thread_pool.h"

namespace wireframe {

Engine::~Engine() = default;

PoolLease::PoolLease(const EngineOptions& options) {
  if (options.runtime.pool != nullptr) {
    pool_ = options.runtime.pool;
    return;
  }
  const uint32_t threads = ThreadPool::ResolveThreads(options.threads);
  if (threads > 1) {
    owned_ = std::make_unique<ThreadPool>(threads);
    pool_ = owned_.get();
  } else {
    pool_ = InlinePool();
  }
}

PoolLease::~PoolLease() = default;

uint32_t PoolLease::threads() const { return pool_->num_threads(); }

std::unique_ptr<Engine> MakeEngine(std::string_view name) {
  if (name == "WF") return std::make_unique<WireframeEngine>();
  if (name == "PG") return std::make_unique<HashJoinEngine>();
  if (name == "VT") return std::make_unique<IndexNestedLoopEngine>();
  if (name == "MD") return std::make_unique<ColumnarEngine>();
  if (name == "NJ") return std::make_unique<BacktrackEngine>();
  return nullptr;
}

std::vector<std::string> AllEngineNames() {
  return {"PG", "WF", "VT", "MD", "NJ"};
}

}  // namespace wireframe
