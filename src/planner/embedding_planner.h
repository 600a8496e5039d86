#ifndef WIREFRAME_PLANNER_EMBEDDING_PLANNER_H_
#define WIREFRAME_PLANNER_EMBEDDING_PLANNER_H_

#include <cstdint>
#include <vector>

#include "planner/plan.h"
#include "query/query_graph.h"
#include "util/result.h"

namespace wireframe {

/// Exact statistics of one query edge's answer-graph edge set, available
/// for free after phase 1 (the paper: "a greedy approach to generate a
/// tree plan based on the available statistics from the answer graph
/// phase").
struct AgEdgeStats {
  uint64_t pairs = 0;         // |AG(e)|
  uint64_t distinct_src = 0;  // distinct source nodes in AG(e)
  uint64_t distinct_dst = 0;  // distinct target nodes in AG(e)
};

/// Phase-2 planner: orders the answer-graph edge sets for defactorization.
///
/// For an acyclic CQ over the ideal AG any connected order is optimal (no
/// intermediate tuple is ever lost — §4.II), so the planner simply picks a
/// connected order. For cyclic queries or non-ideal AGs intermediate
/// results can shrink, so join order matters: the planner greedily extends
/// with the connected edge minimizing the estimated intermediate size,
/// starting from the smallest edge set.
///
/// The greedy orders the skeleton only (the edges left once the pendant
/// edges are removed, query/shape.h LeafEdges), since phase 2 enumerates
/// just the skeleton and writes the leaves' spans as a product per
/// skeleton binding. The leaf edges follow, in ascending estimated
/// fan-out, so the widest span is the product's innermost run.
class EmbeddingPlanner {
 public:
  explicit EmbeddingPlanner(const QueryGraph& query) : query_(&query) {}

  /// Computes a connected join order. `stats` is indexed by query-edge id.
  Result<EmbeddingPlan> PlanJoinOrder(
      const std::vector<AgEdgeStats>& stats) const;

 private:
  const QueryGraph* query_;
};

}  // namespace wireframe

#endif  // WIREFRAME_PLANNER_EMBEDDING_PLANNER_H_
