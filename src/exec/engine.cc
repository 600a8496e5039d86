#include "exec/engine.h"

#include "core/wireframe.h"
#include "exec/baselines.h"

namespace wireframe {

Engine::~Engine() = default;

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
