#ifndef WIREFRAME_CORE_DEFACTORIZER_H_
#define WIREFRAME_CORE_DEFACTORIZER_H_

#include <atomic>

#include "core/answer_graph.h"
#include "exec/sink.h"
#include "planner/plan.h"
#include "query/query_graph.h"
#include "util/result.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace wireframe {

/// Phase-2 options.
struct DefactorizerOptions {
  Deadline deadline;
  /// Worker pool for enumeration (not owned; null runs on InlinePool).
  /// Work is partitioned over the first join edge's AG pairs: each worker
  /// owns a full recursive enumeration context and a SinkShard, so the
  /// shared sink is only locked at batch granularity. The embedding
  /// multiset is identical for every pool size; only emission order
  /// differs across workers.
  ThreadPool* pool = nullptr;
  /// Optional cooperative cancellation (borrowed, may be null): polled on
  /// the same amortized cadence as the deadline; once set, enumeration
  /// stops and Emit returns Status::Cancelled (rows already handed to the
  /// sink stay emitted).
  std::atomic<bool>* cancel = nullptr;
  /// Scheduler weight of every task-group this run submits to `pool`
  /// (service class of the owning query; see ParallelForOptions::weight).
  uint32_t weight = 1;
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
  /// binding to `sink`. Returns counters (or TimedOut). Stops early, with
  /// OK, when the sink declines more rows.
  Result<DefactorizerStats> Emit(const EmbeddingPlan& plan, Sink* sink,
                                 const DefactorizerOptions& options) const;

 private:
  const QueryGraph* query_;
  const AnswerGraph* ag_;
};

}  // namespace wireframe

#endif  // WIREFRAME_CORE_DEFACTORIZER_H_
