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
  /// Enumeration work: skeleton binding attempts (roots, span candidates
  /// and both-bound checks, across all skeleton depths), plus leaf spans
  /// fetched, plus rows written by leaf products. Over an ideal AG this is
  /// about `emitted`.
  uint64_t extensions = 0;
  /// Branches cut by a chord filter before reaching full depth.
  uint64_t chord_rejections = 0;
};

/// Embedding generation (paper §3): joins the answer graph's edge sets to
/// enumerate the CQ's embedding tuples.
///
/// The AG is a factorized answer set, and phase 2 enumerates it as one
/// (the constant-delay enumeration of a factorized representation,
/// Olteanu & Závodný, TODS 2015). A *leaf* edge has exactly one endpoint
/// of degree 1, counting query edges and checked chords
/// (query/shape.h LeafEdges); the other edges form the connected
/// *skeleton*. Only the skeleton is enumerated depth-first, in the plan's
/// order, without materializing intermediates. For a fixed skeleton
/// binding the rows are the Cartesian product of the leaves' spans: each
/// leaf span is fetched once, when its key variable is bound (an empty
/// one prunes the branch there), and at the end of the skeleton an
/// odometer walks the outer spans while the innermost span is written as
/// one run of rows. For an acyclic CQ over the ideal AG the work is
/// proportional to the output — no partial tuple is ever abandoned, the
/// paper's "no k-ary tuple is ever eliminated during a join" guarantee.
/// For cyclic CQs over non-ideal AGs some skeleton branches die; the
/// embedding planner's join order and the chord filters minimize that.
///
/// Read path: the AG must be frozen (AnswerGraph::Freeze). The first
/// skeleton edge's pairs are the roots, filtered by the chords both of
/// whose endpoints it binds; every later skeleton extension is a
/// FwdNeighbors / BwdNeighbors span of the CSR form (util/csr.h),
/// intersected with the spans of the chords that become checkable at
/// that depth. Chord endpoints are never leaf variables, so a leaf span
/// needs no check.
///
/// Output path: every embedding is written as one row into a fixed-size
/// row-major batch owned by the enumeration context, and the sink gets
/// whole batches through Sink::EmitBatch, via the worker's SinkShard —
/// one lock acquisition per batch. A row of at most 16 columns is one
/// fixed-size copy of a zero-padded row template plus its free column.
/// Each context flushes its tail batch at the end. Every flushed batch
/// also checks cancellation and the deadline, since one skeleton binding
/// may expand to any number of rows. A declined batch stops the run;
/// rows already made into a batch past the decline are dropped, so at
/// most one batch of extra rows is ever produced per enumeration context.
/// Stats: `emitted` counts the rows the sink consumed; `extensions` and
/// `chord_rejections` are the same for every thread count.
class Defactorizer {
 public:
  Defactorizer(const QueryGraph& query, const AnswerGraph& ag)
      : query_(&query), ag_(&ag) {}

  /// Enumerates all embeddings of `plan.join_order` (any connected order),
  /// emitting each full binding to `sink`. Returns counters (or TimedOut /
  /// Cancelled). Stops early, with OK, when the sink declines more rows.
  /// Work is partitioned over the first skeleton edge's AG pairs on
  /// `run`'s pool: each worker owns a full recursive enumeration context
  /// and a SinkShard, so the shared sink is only locked at batch
  /// granularity. The embedding multiset is identical for every pool
  /// size; only emission order differs.
  Result<DefactorizerStats> Emit(const EmbeddingPlan& plan, Sink* sink,
                                 const DefactorizerOptions& options,
                                 const EngineOptions& run = {}) const;

 private:
  const QueryGraph* query_;
  const AnswerGraph* ag_;
};

}  // namespace wireframe

#endif  // WIREFRAME_CORE_DEFACTORIZER_H_
