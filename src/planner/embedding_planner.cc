#include "planner/embedding_planner.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "query/shape.h"
#include "util/logging.h"

namespace wireframe {

Result<EmbeddingPlan> EmbeddingPlanner::PlanJoinOrder(
    const std::vector<AgEdgeStats>& stats) const {
  const QueryGraph& query = *query_;
  const uint32_t n = query.NumEdges();
  if (n == 0) return Status::InvalidArgument("query has no patterns");
  WF_CHECK(stats.size() == n) << "stats must cover every query edge";
  if (!IsConnected(query)) {
    return Status::InvalidArgument(
        "disconnected query graphs are not supported");
  }

  EmbeddingPlan plan;
  std::vector<bool> used(n, false);
  std::vector<bool> bound(query.NumVars(), false);

  // Phase 2 enumerates the skeleton depth-first and writes the leaf
  // edges as a product of spans, so only the skeleton is ordered by the
  // greedy; a star has no skeleton, and its smallest edge stands in.
  std::vector<bool> leaf = LeafEdges(query);
  const bool has_skeleton =
      std::find(leaf.begin(), leaf.end(), false) != leaf.end();

  // Start from the smallest skeleton edge set.
  uint32_t first = UINT32_MAX;
  for (uint32_t e = 0; e < n; ++e) {
    if (has_skeleton && leaf[e]) continue;
    if (first == UINT32_MAX || stats[e].pairs < stats[first].pairs) {
      first = e;
    }
  }
  leaf[first] = false;
  plan.join_order.push_back(first);
  used[first] = true;
  bound[query.Edge(first).src] = true;
  bound[query.Edge(first).dst] = true;
  double tuples = static_cast<double>(stats[first].pairs);

  auto fanout = [&](uint32_t e, bool src_bound, bool dst_bound) -> double {
    const AgEdgeStats& s = stats[e];
    const double pairs = static_cast<double>(s.pairs);
    if (src_bound && dst_bound) {
      // Both endpoints bound: the edge acts as a selection; expected pass
      // rate of a random (u,v) combination.
      const double dom = static_cast<double>(s.distinct_src) *
                         static_cast<double>(s.distinct_dst);
      return dom <= 0 ? 0.0 : std::min(1.0, pairs / dom);
    }
    if (src_bound) {
      return s.distinct_src == 0
                 ? 0.0
                 : pairs / static_cast<double>(s.distinct_src);
    }
    return s.distinct_dst == 0 ? 0.0
                               : pairs / static_cast<double>(s.distinct_dst);
  };

  const auto num_skeleton =
      static_cast<uint32_t>(std::count(leaf.begin(), leaf.end(), false));
  for (uint32_t step = 1; step < num_skeleton; ++step) {
    uint32_t best = UINT32_MAX;
    double best_tuples = std::numeric_limits<double>::infinity();
    for (uint32_t e = 0; e < n; ++e) {
      if (used[e] || leaf[e]) continue;
      const QueryEdge& qe = query.Edge(e);
      const bool sb = bound[qe.src], db = bound[qe.dst];
      if (!sb && !db) continue;  // keep the plan connected
      const double next = tuples * fanout(e, sb, db);
      if (next < best_tuples) {
        best_tuples = next;
        best = e;
      }
    }
    WF_CHECK(best != UINT32_MAX) << "connected skeleton must have a next edge";
    used[best] = true;
    bound[query.Edge(best).src] = true;
    bound[query.Edge(best).dst] = true;
    tuples = best_tuples;
    plan.join_order.push_back(best);
  }

  // Every leaf hangs off a bound skeleton variable. Narrowest span
  // first, so the widest is the innermost run of the product.
  std::vector<std::pair<double, uint32_t>> leaves;
  for (uint32_t e = 0; e < n; ++e) {
    if (used[e]) continue;
    const QueryEdge& qe = query.Edge(e);
    WF_CHECK(bound[qe.src] || bound[qe.dst]) << "leaf off the skeleton";
    leaves.emplace_back(fanout(e, bound[qe.src], bound[qe.dst]), e);
  }
  std::stable_sort(
      leaves.begin(), leaves.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [leaf_fanout, e] : leaves) {
    tuples *= leaf_fanout;
    plan.join_order.push_back(e);
  }
  plan.estimated_tuples = tuples;
  return plan;
}

}  // namespace wireframe
