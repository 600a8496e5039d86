#include "exec/sink.h"

namespace wireframe {

// Out-of-line destructor anchors the vtable in this translation unit.
Sink::~Sink() = default;

bool Sink::EmitBatch(const NodeId* rows, size_t n, size_t width) {
  std::vector<NodeId> row(width);
  for (size_t r = 0; r < n; ++r) {
    row.assign(rows + r * width, rows + (r + 1) * width);
    if (!Emit(row)) return false;
  }
  return true;
}

bool DeliverBatch(Sink* sink, const NodeId* rows, size_t n, size_t width,
                  uint64_t* consumed) {
  const uint64_t before = sink->count();
  if (sink->EmitBatch(rows, n, width)) {
    *consumed += n;
    return true;
  }
  const uint64_t after = sink->count();
  *consumed += std::min<uint64_t>(n, after > before ? after - before : 0);
  return false;
}

}  // namespace wireframe
