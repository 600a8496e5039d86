#ifndef WIREFRAME_PLANNER_PLAN_H_
#define WIREFRAME_PLANNER_PLAN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "query/query_graph.h"

namespace wireframe {

/// One side of a triangle: either an original query edge or another chord.
struct TriangleSide {
  bool is_chord = false;
  /// Index into QueryGraph::edges() or AgPlan::chords.
  uint32_t index = 0;

  friend bool operator==(const TriangleSide&, const TriangleSide&) = default;
};

/// A triangle produced by chordification: the chord's endpoints (u, v) plus
/// apex w, with side_uw connecting u–w and side_wv connecting w–v. The
/// chord it belongs to is the u–v side.
struct Triangle {
  VarId apex = kInvalidVar;
  TriangleSide side_uw;
  TriangleSide side_wv;
};

/// A chord added by the Triangulator to bisect a cycle (paper §4: "the
/// choice of which additional 'query edges', which we call chords, to
/// add"). A chord carries no label; at runtime it is materialized as the
/// intersection over its triangles of the join of the two opposite sides.
struct Chord {
  VarId u = kInvalidVar;
  VarId v = kInvalidVar;
  /// Every triangle this chord participates in (>= 1; the bisecting chord
  /// of a 4-cycle participates in both resulting triangles).
  std::vector<Triangle> triangles;
};

/// Phase-1 plan: the order in which query edges are materialized into the
/// answer graph, plus the chord structure for cyclic queries.
struct AgPlan {
  /// Permutation of query-edge indices (the paper's left-deep tree plan).
  std::vector<uint32_t> edge_order;
  /// Chordification of the query's cycles; empty for acyclic queries or
  /// when triangulation is disabled.
  std::vector<Chord> chords;
  /// Triangles whose three sides are all original query edges (length-3
  /// cycles need no chord but still participate in edge burnback).
  std::vector<Triangle> base_triangles;
  /// For base_triangles, the u–v side (a query edge) the triangle closes.
  std::vector<uint32_t> base_triangle_closing_edge;

  /// Cost-model outputs, for explain/diagnostics.
  double estimated_walks = 0.0;
  double estimated_ag_edges = 0.0;

  std::string ToString(const QueryGraph& query,
                       const std::function<std::string(LabelId)>& label_name)
      const;
};

/// Phase-2 plan: the order in which answer-graph edge sets are joined when
/// composing embeddings (defactorization). The planner puts the skeleton
/// edges first, in a connected order, and the leaf edges after them; the
/// defactorizer accepts any connected order and makes the same split.
struct EmbeddingPlan {
  std::vector<uint32_t> join_order;
  double estimated_tuples = 0.0;

  std::string ToString(const QueryGraph& query,
                       const std::function<std::string(LabelId)>& label_name)
      const;
};

}  // namespace wireframe

#endif  // WIREFRAME_PLANNER_PLAN_H_
