#ifndef WIREFRAME_QUERY_SHAPE_H_
#define WIREFRAME_QUERY_SHAPE_H_

#include <utility>
#include <vector>

#include "query/query_graph.h"

namespace wireframe {

/// A simple cycle of the query graph: vars[i] -- edges[i] -- vars[i+1],
/// wrapping around (edges[n-1] connects vars[n-1] and vars[0]). Edge
/// direction is ignored; Length() >= 2 (two parallel patterns between the
/// same variable pair already form a cycle for planning purposes).
struct QueryCycle {
  std::vector<VarId> vars;
  std::vector<uint32_t> edges;

  uint32_t Length() const { return static_cast<uint32_t>(vars.size()); }
};

/// Structural classification of a query graph, driving planner choices:
/// acyclic queries need only node burnback; cyclic ones are triangulated.
struct QueryShape {
  bool connected = false;
  /// True iff the underlying undirected multigraph has no cycle, i.e. the
  /// CQ is tree-shaped (snowflakes, chains, stars).
  bool acyclic = false;
  /// A fundamental cycle basis (one cycle per non-tree edge of a BFS
  /// spanning forest). Empty iff acyclic.
  std::vector<QueryCycle> cycles;
};

/// Analyzes connectivity and cycle structure of `query`.
QueryShape AnalyzeShape(const QueryGraph& query);

/// True iff the undirected query graph is connected (engines require it;
/// disconnected CQs are cross products the paper does not consider).
bool IsConnected(const QueryGraph& query);

/// True iff the query graph is tree-shaped.
bool IsAcyclic(const QueryGraph& query);

/// The pendant ("leaf") edges of `query`, indexed by query-edge id: an
/// edge is a leaf iff exactly one of its endpoints has degree 1. Degrees
/// count the query edges plus `links`, extra undirected variable pairs
/// such as materialized chords, so a link endpoint is never a leaf
/// variable. The other edges form the skeleton, which stays connected
/// when the leaves are removed. A star (every edge shares one center)
/// has no skeleton edge; callers then keep one edge of it as the
/// skeleton.
std::vector<bool> LeafEdges(
    const QueryGraph& query,
    const std::vector<std::pair<VarId, VarId>>& links = {});

}  // namespace wireframe

#endif  // WIREFRAME_QUERY_SHAPE_H_
