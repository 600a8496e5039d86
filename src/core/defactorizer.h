#ifndef WIREFRAME_CORE_DEFACTORIZER_H_
#define WIREFRAME_CORE_DEFACTORIZER_H_

#include "core/answer_graph.h"
#include "exec/engine.h"
#include "exec/sink.h"
#include "planner/plan.h"
#include "query/query_graph.h"
#include "util/result.h"

namespace wireframe {

/// Phase-2 options.
struct DefactorizerOptions {
  /// Use materialized chord pair sets as early filters: as soon as both
  /// endpoints of a chord are bound, a binding not in the chord set is
  /// abandoned. Sound (chord sets are supersets of the embedding
  /// projections) and realizes §6's promise that "triangulation promises
  /// to reduce [embedding-generation cost] significantly" — the chord
  /// check cuts dead branches that a non-ideal AG would otherwise explore
  /// to the end. No effect on acyclic queries (no chords).
  bool use_chords = true;
};

/// Phase-2 counters.
struct DefactorizerStats {
  /// Embeddings the sink consumed (rows made after a decline and never
  /// handed over are not counted).
  uint64_t emitted = 0;
  /// Tuple-extension steps performed (binding attempts across all
  /// depths); over an ideal AG this is proportional to emitted.
  uint64_t extensions = 0;
  /// Branches cut by a chord filter before reaching full depth.
  uint64_t chord_rejections = 0;
};

/// Embedding generation (paper §3): joins the answer graph's edge sets in
/// the embedding plan's order to enumerate the CQ's embedding tuples.
///
/// Execution is pipelined (depth-first): each tuple is extended edge by
/// edge without materializing intermediates, so for an acyclic CQ over the
/// ideal AG the work is proportional to the output — no partial tuple is
/// ever abandoned, which is the paper's "no k-ary tuple is ever eliminated
/// during a join" guarantee. For cyclic CQs over non-ideal AGs some
/// branches die; the embedding planner's join order and the chord filters
/// minimize that.
///
/// Read path: the AG must be frozen (AnswerGraph::Freeze). The first
/// join edge's pairs are the roots, filtered by the chords both of whose
/// endpoints it binds; every later extension is a FwdNeighbors /
/// BwdNeighbors span of the CSR form (util/csr.h), intersected with the
/// spans of the chords that become checkable at that depth.
///
/// Output path: every embedding is written as one row into a fixed-size
/// row-major batch owned by the enumeration context, and the sink gets
/// whole batches through Sink::EmitBatch, via the worker's SinkShard —
/// one lock acquisition per batch. At the last join depth the candidate
/// span (or its chord-intersected survivors) goes into the batch
/// directly, with no per-candidate recursion. Each context flushes its
/// tail batch at the end. A declined batch stops the run; rows already
/// made into a batch past the decline are dropped, so at most one batch
/// of extra rows is ever produced per enumeration context. Stats:
/// `emitted` counts the rows the sink consumed; `extensions` and
/// `chord_rejections` count exactly what per-candidate extension would,
/// for every thread count.
class Defactorizer {
 public:
  Defactorizer(const QueryGraph& query, const AnswerGraph& ag)
      : query_(&query), ag_(&ag) {}

  /// Enumerates all embeddings in `plan.join_order`, emitting each full
  /// binding to `sink`. Returns counters (or TimedOut / Cancelled). Stops
  /// early, with OK, when the sink declines more rows. Work is partitioned
  /// over the first join edge's AG pairs on `run`'s pool: each worker owns
  /// a full recursive enumeration context and a SinkShard, so the shared
  /// sink is only locked at batch granularity. The embedding multiset is
  /// identical for every pool size; only emission order differs.
  Result<DefactorizerStats> Emit(const EmbeddingPlan& plan, Sink* sink,
                                 const DefactorizerOptions& options,
                                 const EngineOptions& run = {}) const;

 private:
  const QueryGraph* query_;
  const AnswerGraph* ag_;
};

}  // namespace wireframe

#endif  // WIREFRAME_CORE_DEFACTORIZER_H_
