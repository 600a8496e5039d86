#include "planner/plan.h"

#include <algorithm>
#include <sstream>

#include "query/shape.h"

namespace wireframe {

std::string AgPlan::ToString(
    const QueryGraph& query,
    const std::function<std::string(LabelId)>& label_name) const {
  std::ostringstream os;
  os << "AG plan (edge walks ~" << static_cast<uint64_t>(estimated_walks)
     << ", AG edges ~" << static_cast<uint64_t>(estimated_ag_edges) << "):\n";
  int step = 1;
  for (uint32_t e : edge_order) {
    const QueryEdge& qe = query.Edge(e);
    os << "  " << step++ << ". ?" << query.VarName(qe.src) << " --"
       << label_name(qe.label) << "--> ?" << query.VarName(qe.dst) << "\n";
  }
  for (size_t c = 0; c < chords.size(); ++c) {
    os << "  chord " << c << ": (?" << query.VarName(chords[c].u) << ", ?"
       << query.VarName(chords[c].v) << ") in " << chords[c].triangles.size()
       << " triangle(s)\n";
  }
  return os.str();
}

std::string EmbeddingPlan::ToString(
    const QueryGraph& query,
    const std::function<std::string(LabelId)>& label_name) const {
  std::ostringstream os;
  os << "Embedding plan (tuples ~" << static_cast<uint64_t>(estimated_tuples)
     << "):\n";
  // The split phase 2 runs: skeleton steps bind depth-first, and the
  // leaf edges' spans are written as one product per skeleton binding.
  std::vector<bool> leaf = LeafEdges(query);
  if (!join_order.empty() &&
      std::find(leaf.begin(), leaf.end(), false) == leaf.end()) {
    leaf[join_order[0]] = false;  // a star: the root edge is the skeleton
  }
  os << "  skeleton, depth-first:\n";
  bool in_product = false;
  int step = 1;
  for (uint32_t e : join_order) {
    if (leaf[e] && !in_product) {
      os << "  leaf product, per skeleton binding:\n";
      in_product = true;
    }
    const QueryEdge& qe = query.Edge(e);
    os << "    " << step++ << (leaf[e] ? ". span ?" : ". join ?")
       << query.VarName(qe.src) << " --" << label_name(qe.label) << "--> ?"
       << query.VarName(qe.dst) << "\n";
  }
  return os.str();
}

}  // namespace wireframe
