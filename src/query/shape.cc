#include "query/shape.h"

#include <algorithm>
#include <deque>

#include "util/logging.h"

namespace wireframe {

namespace {

/// BFS spanning forest: parent_var[v] / parent_edge[v] for non-roots,
/// depth[v] for LCA walks. Returns the list of non-tree edges.
struct Forest {
  std::vector<VarId> parent_var;
  std::vector<uint32_t> parent_edge;
  std::vector<uint32_t> depth;
  std::vector<bool> visited;
  std::vector<uint32_t> non_tree_edges;
  uint32_t num_components = 0;
};

Forest BuildForest(const QueryGraph& q) {
  const uint32_t n = q.NumVars();
  Forest f;
  f.parent_var.assign(n, kInvalidVar);
  f.parent_edge.assign(n, UINT32_MAX);
  f.depth.assign(n, 0);
  f.visited.assign(n, false);
  std::vector<bool> edge_used(q.NumEdges(), false);

  for (VarId root = 0; root < n; ++root) {
    if (f.visited[root]) continue;
    ++f.num_components;
    std::deque<VarId> queue{root};
    f.visited[root] = true;
    while (!queue.empty()) {
      VarId v = queue.front();
      queue.pop_front();
      for (uint32_t e : q.IncidentEdges(v)) {
        if (edge_used[e]) continue;
        VarId w = q.Edge(e).Other(v);
        if (!f.visited[w]) {
          edge_used[e] = true;
          f.visited[w] = true;
          f.parent_var[w] = v;
          f.parent_edge[w] = e;
          f.depth[w] = f.depth[v] + 1;
          queue.push_back(w);
        }
      }
    }
  }
  for (uint32_t e = 0; e < q.NumEdges(); ++e) {
    if (!edge_used[e]) f.non_tree_edges.push_back(e);
  }
  return f;
}

/// Builds the fundamental cycle closed by non-tree edge `e`: the tree path
/// between its endpoints plus `e` itself.
QueryCycle MakeCycle(const QueryGraph& q, const Forest& f, uint32_t e) {
  VarId a = q.Edge(e).src;
  VarId b = q.Edge(e).dst;

  // Walk both endpoints up to their LCA, recording (var, edge-above) pairs.
  std::vector<VarId> up_a{a}, up_b{b};
  std::vector<uint32_t> edges_a, edges_b;
  VarId x = a, y = b;
  while (f.depth[x] > f.depth[y]) {
    edges_a.push_back(f.parent_edge[x]);
    x = f.parent_var[x];
    up_a.push_back(x);
  }
  while (f.depth[y] > f.depth[x]) {
    edges_b.push_back(f.parent_edge[y]);
    y = f.parent_var[y];
    up_b.push_back(y);
  }
  while (x != y) {
    edges_a.push_back(f.parent_edge[x]);
    x = f.parent_var[x];
    up_a.push_back(x);
    edges_b.push_back(f.parent_edge[y]);
    y = f.parent_var[y];
    up_b.push_back(y);
  }

  // Cycle: a .. lca .. b, then the closing edge e back to a.
  QueryCycle cycle;
  cycle.vars = up_a;  // a ... lca
  cycle.edges = edges_a;
  for (size_t i = up_b.size(); i-- > 1;) {  // lca excluded; down to b
    cycle.edges.push_back(edges_b[i - 1]);
    cycle.vars.push_back(up_b[i - 1]);
  }
  cycle.edges.push_back(e);  // b -> a, closing the loop
  WF_DCHECK(cycle.vars.size() == cycle.edges.size());
  return cycle;
}

}  // namespace

QueryShape AnalyzeShape(const QueryGraph& query) {
  QueryShape shape;
  if (query.NumVars() == 0) {
    shape.connected = true;
    shape.acyclic = true;
    return shape;
  }
  Forest forest = BuildForest(query);
  shape.connected = forest.num_components == 1;
  shape.acyclic = forest.non_tree_edges.empty();
  for (uint32_t e : forest.non_tree_edges) {
    shape.cycles.push_back(MakeCycle(query, forest, e));
  }
  return shape;
}

bool IsConnected(const QueryGraph& query) {
  return AnalyzeShape(query).connected;
}

bool IsAcyclic(const QueryGraph& query) { return AnalyzeShape(query).acyclic; }

std::vector<bool> LeafEdges(
    const QueryGraph& query,
    const std::vector<std::pair<VarId, VarId>>& links) {
  std::vector<uint32_t> degree(query.NumVars(), 0);
  for (VarId v = 0; v < query.NumVars(); ++v) degree[v] = query.Degree(v);
  for (const auto& [u, v] : links) {
    ++degree[u];
    ++degree[v];
  }
  std::vector<bool> leaf(query.NumEdges(), false);
  for (uint32_t e = 0; e < query.NumEdges(); ++e) {
    const QueryEdge& qe = query.Edge(e);
    leaf[e] = (degree[qe.src] == 1) != (degree[qe.dst] == 1);
  }
  return leaf;
}

}  // namespace wireframe
