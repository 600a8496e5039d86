#include "core/defactorizer.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>

#include "util/interrupt.h"
#include "util/logging.h"
#include "util/span_kernels.h"

namespace wireframe {

namespace {

/// First-edge pairs per morsel. Each pair roots a whole enumeration
/// subtree, so morsels are small to balance skew; the dispatch cost is
/// one fetch_add per morsel.
constexpr uint64_t kRootMorsel = 64;

/// Rows per output batch. Every emission is written into the context's
/// batch and reaches the sink one EmitBatch call per this many rows, so
/// a declining sink can leave at most this many rows made but unseen.
constexpr size_t kBatchRows = 256;

/// One chord evaluated by span intersection: at its check depth (any
/// depth but 0) exactly one endpoint is newly bound, so the chord
/// constrains the extension candidates to the chord-neighbors of the
/// already-bound endpoint — a sorted span fetched once per parent
/// binding (the hoisted form of probing Contains per candidate).
struct IntersectChord {
  uint32_t slot;
  /// The endpoint bound before this depth; its binding keys the span.
  VarId bound_var;
  /// True: the free endpoint is the chord's dst, so candidates are
  /// FwdNeighbors(binding[bound_var]); false: BwdNeighbors.
  bool fwd;
};

/// Recursive enumeration state shared across frames.
struct EmitContext {
  const QueryGraph* query;
  const AnswerGraph* ag;
  const std::vector<uint32_t>* order;
  /// depth_chords[d]: the chords that become checkable at depth d >= 1,
  /// in intersection form (precomputed from the join order: the bound
  /// set at each depth is static, so orientation needs no runtime probe).
  const std::vector<std::vector<IntersectChord>>* depth_chords;
  Sink* sink;
  InterruptProbe probe;
  std::vector<NodeId> binding;
  DefactorizerStats stats;
  bool stop = false;  // sink asked to stop (not an error)
  /// Ping-pong intersection scratch, indexed by depth: a frame only
  /// touches its own depth's buffers, so recursion below it is safe.
  std::vector<std::vector<NodeId>> isect_a;
  std::vector<std::vector<NodeId>> isect_b;
  /// The output batch: kBatchRows rows of binding.size() columns,
  /// row-major; the first batch_rows are filled.
  std::vector<NodeId> batch;
  size_t batch_rows = 0;

  /// Amortized deadline + cancellation probe; also true once the sink
  /// declined more rows.
  bool DeadlineHit() {
    if (stop) return true;
    if (!probe.Hit()) return false;
    stop = true;
    return true;
  }

  /// Hands the filled rows to the sink; `emitted` counts the rows it
  /// consumed. A decline stops the run.
  void Flush() {
    if (batch_rows == 0) return;
    if (!DeliverBatch(sink, batch.data(), batch_rows, binding.size(),
                      &stats.emitted)) {
      stop = true;
    }
    batch_rows = 0;
  }

  /// Appends the current (complete) binding as one row.
  void EmitRow() {
    std::copy(binding.begin(), binding.end(),
              batch.data() + batch_rows * binding.size());
    if (++batch_rows == kBatchRows) Flush();
  }

  /// Appends one row per candidate: the current binding with `free_var`
  /// set to the candidate. The leaf-depth form of EmitRow — no
  /// per-candidate recursion, and the span goes into the batch in
  /// chunks of whatever room is left.
  void EmitSpan(std::span<const NodeId> candidates, VarId free_var) {
    const size_t width = binding.size();
    size_t i = 0;
    while (i < candidates.size() && !stop) {
      const size_t take =
          std::min(candidates.size() - i, kBatchRows - batch_rows);
      NodeId* row = batch.data() + batch_rows * width;
      for (size_t k = 0; k < take; ++k, row += width) {
        std::copy(binding.begin(), binding.end(), row);
        row[free_var] = candidates[i + k];
      }
      i += take;
      batch_rows += take;
      if (batch_rows == kBatchRows) Flush();
    }
  }
};

void EmitStep(EmitContext& ctx, size_t depth);

/// A depth with chords to check: instead of scanning `ext` and probing
/// every chord per candidate, intersect the extension span with each
/// chord span (both sorted CSR spans) and recurse only over the
/// survivors — or, at the last depth, write them into the output batch
/// as one span. Accounting counts what per-candidate probing would: one
/// extension per span candidate, one rejection per candidate failing any
/// chord — so stats are invariant across kernel dispatch and thread
/// count.
void IntersectAndRecurse(EmitContext& ctx, size_t depth,
                         std::span<const NodeId> ext, VarId free_var) {
  ctx.stats.extensions += ext.size();
  std::span<const NodeId> current = ext;
  bool into_a = true;
  for (const IntersectChord& chord : (*ctx.depth_chords)[depth]) {
    if (current.empty()) break;
    const PairSet& cset = ctx.ag->Set(chord.slot);
    const NodeId bound = ctx.binding[chord.bound_var];
    const std::span<const NodeId> cspan =
        chord.fwd ? cset.FwdNeighbors(bound) : cset.BwdNeighbors(bound);
    std::vector<NodeId>& buf = into_a ? ctx.isect_a[depth]
                                      : ctx.isect_b[depth];
    const size_t cap = std::min(current.size(), cspan.size()) + kIntersectPad;
    if (buf.size() < cap) buf.resize(cap);
    const size_t n = IntersectSorted(current, cspan, buf.data());
    current = std::span<const NodeId>(buf.data(), n);
    into_a = !into_a;
  }
  ctx.stats.chord_rejections += ext.size() - current.size();
  if (depth + 1 == ctx.order->size()) {
    ctx.EmitSpan(current, free_var);
    return;
  }
  NodeId& free_slot = ctx.binding[free_var];
  for (const NodeId value : current) {
    if (ctx.stop) break;
    free_slot = value;
    EmitStep(ctx, depth + 1);
  }
  free_slot = kInvalidNode;
}

void EmitStep(EmitContext& ctx, size_t depth) {
  if (ctx.stop) return;
  if (depth == ctx.order->size()) {
    ctx.EmitRow();
    return;
  }
  const uint32_t e = (*ctx.order)[depth];
  const QueryEdge& qe = ctx.query->Edge(e);
  const PairSet& set = ctx.ag->Set(e);
  NodeId& src_slot = ctx.binding[qe.src];
  NodeId& dst_slot = ctx.binding[qe.dst];
  const bool src_bound = src_slot != kInvalidNode;
  const bool dst_bound = dst_slot != kInvalidNode;

  if (ctx.DeadlineHit()) return;

  if (src_bound && dst_bound) {
    // No variable binds here, so no chord becomes checkable either.
    ++ctx.stats.extensions;
    if (set.Contains(src_slot, dst_slot)) EmitStep(ctx, depth + 1);
    return;
  }
  // The root partition binds depth 0, and the plan is connected, so
  // every later edge has at least one endpoint bound.
  WF_DCHECK(src_bound || dst_bound) << "disconnected embedding plan";
  const VarId free_var = src_bound ? qe.dst : qe.src;
  const NodeId key = src_bound ? src_slot : dst_slot;
  const std::span<const NodeId> ext =
      src_bound ? set.FwdNeighbors(key) : set.BwdNeighbors(key);
  if (!(*ctx.depth_chords)[depth].empty()) {
    IntersectAndRecurse(ctx, depth, ext, free_var);
    return;
  }
  if (depth + 1 == ctx.order->size()) {
    // Last depth, nothing to check: the span is the rows.
    ctx.stats.extensions += ext.size();
    ctx.EmitSpan(ext, free_var);
    return;
  }
  NodeId& free_slot = ctx.binding[free_var];
  for (const NodeId candidate : ext) {
    if (ctx.stop) break;
    ++ctx.stats.extensions;
    free_slot = candidate;
    EmitStep(ctx, depth + 1);
  }
  free_slot = kInvalidNode;
}

}  // namespace

Result<DefactorizerStats> Defactorizer::Emit(
    const EmbeddingPlan& plan, Sink* sink,
    const DefactorizerOptions& options, const EngineOptions& run) const {
  WF_CHECK(plan.join_order.size() == query_->NumEdges())
      << "embedding plan must cover every query edge";
  WF_CHECK(!plan.join_order.empty()) << "embedding plan has no edges";
  WF_CHECK(ag_->IsFrozen()) << "phase 2 requires a frozen AnswerGraph";

  // Each materialized chord is checked at the first depth after which
  // both its endpoints are bound. At depth 0 it filters the root pairs;
  // at any later depth exactly one endpoint — the edge's free variable —
  // is new (the plan is connected), so the chord becomes a span
  // intersection over the extension candidates.
  const std::vector<uint32_t>& order = plan.join_order;
  std::vector<uint32_t> root_chords;
  std::vector<std::vector<IntersectChord>> depth_chords(order.size());
  if (options.use_chords) {
    std::vector<bool> bound(query_->NumVars(), false);
    for (size_t d = 0; d < order.size(); ++d) {
      const QueryEdge& qe = query_->Edge(order[d]);
      auto bound_after = [&](VarId v) {
        return bound[v] || v == qe.src || v == qe.dst;
      };
      for (uint32_t slot = ag_->NumQueryEdges(); slot < ag_->NumEdgeSets();
           ++slot) {
        if (!ag_->IsMaterialized(slot)) continue;
        const VarId cu = ag_->SrcVar(slot);
        const VarId cv = ag_->DstVar(slot);
        if (!bound_after(cu) || !bound_after(cv) || (bound[cu] && bound[cv])) {
          continue;  // not checkable yet, or checked at an earlier depth
        }
        if (d == 0) {
          root_chords.push_back(slot);
          continue;
        }
        const bool cu_new = !bound[cu];
        const bool cv_new = !bound[cv];
        WF_DCHECK(cu_new != cv_new) << "disconnected embedding plan";
        depth_chords[d].push_back({slot, cu_new ? cv : cu, /*fwd=*/cv_new});
      }
      bound[qe.src] = true;
      bound[qe.dst] = true;
    }
  }

  auto init_context = [&](EmitContext& ctx) {
    ctx.query = query_;
    ctx.ag = ag_;
    ctx.order = &plan.join_order;
    ctx.depth_chords = &depth_chords;
    ctx.probe = InterruptProbe(run.deadline, run.cancel);
    ctx.binding.assign(query_->NumVars(), kInvalidNode);
    ctx.isect_a.resize(plan.join_order.size());
    ctx.isect_b.resize(plan.join_order.size());
    ctx.batch.resize(kBatchRows * query_->NumVars());
  };

  // Partition the first edge's pairs; each worker runs the recursive
  // EmitStep over its own context from depth 1, draining rows through a
  // private SinkShard.
  ThreadPool* pool = run.Pool();
  const uint32_t e0 = plan.join_order[0];
  const QueryEdge& qe0 = query_->Edge(e0);
  const PairSet& first = ag_->Set(e0);
  std::vector<std::pair<NodeId, NodeId>> roots;
  roots.reserve(first.Size());
  first.ForEachPair([&](NodeId u, NodeId v) { roots.emplace_back(u, v); });

  // Depth-0 chords (both endpoints bound by the first edge) applied to
  // the whole sorted root list as one batched probe per chord —
  // Csr::ContainsMany walks each span monotonically with prefetch
  // instead of binary-searching per root. Accounting: one extension per
  // root (charged here for discarded roots, per surviving root below)
  // and one rejection per discarded root.
  uint64_t prefilter_rejections = 0;
  if (!root_chords.empty()) {
    std::vector<NodeId> keys(roots.size());
    std::vector<NodeId> vals(roots.size());
    std::vector<uint8_t> hits(roots.size());
    for (uint32_t slot : root_chords) {
      // Depth-0 chords connect exactly the first edge's variables.
      const bool straight = ag_->SrcVar(slot) == qe0.src;
      WF_DCHECK(straight ? (ag_->SrcVar(slot) == qe0.src &&
                            ag_->DstVar(slot) == qe0.dst)
                         : (ag_->SrcVar(slot) == qe0.dst &&
                            ag_->DstVar(slot) == qe0.src));
      for (size_t i = 0; i < roots.size(); ++i) {
        keys[i] = straight ? roots[i].first : roots[i].second;
        vals[i] = straight ? roots[i].second : roots[i].first;
      }
      const Csr& csr = ag_->Set(slot).FwdCsr();
      csr.ContainsMany(std::span<const NodeId>(keys).first(roots.size()),
                       std::span<const NodeId>(vals).first(roots.size()),
                       hits.data());
      size_t kept = 0;
      for (size_t i = 0; i < roots.size(); ++i) {
        if (hits[i] != 0) {
          roots[kept++] = roots[i];
        } else {
          ++prefilter_rejections;
        }
      }
      roots.resize(kept);
      keys.resize(kept);
      vals.resize(kept);
      hits.resize(kept);
    }
  }

  std::mutex sink_mu;
  std::atomic<bool> stop{false};
  const uint32_t workers = pool->num_threads();
  std::vector<EmitContext> ctxs(workers);
  std::vector<SinkShard> shards;
  shards.reserve(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    shards.emplace_back(sink, &sink_mu, &stop);
    init_context(ctxs[w]);
  }
  for (uint32_t w = 0; w < workers; ++w) ctxs[w].sink = &shards[w];

  const Status st = pool->ParallelFor(
      roots.size(), run.Morsels(kRootMorsel, &stop),
      [&](uint32_t worker, uint64_t begin, uint64_t end) {
        EmitContext& ctx = ctxs[worker];
        for (uint64_t i = begin; i < end && !ctx.stop; ++i) {
          const auto [u, v] = roots[i];
          ++ctx.stats.extensions;
          ctx.binding[qe0.src] = u;
          ctx.binding[qe0.dst] = v;
          EmitStep(ctx, 1);
          ctx.binding[qe0.src] = kInvalidNode;
          ctx.binding[qe0.dst] = kInvalidNode;
        }
      });

  bool timed_out = st.IsTimedOut();
  bool cancelled = st.IsCancelled();
  for (const EmitContext& ctx : ctxs) {
    timed_out |= ctx.probe.timed_out();
    cancelled |= ctx.probe.cancelled();
  }
  if (cancelled) return Status::Cancelled("embedding generation");
  if (timed_out) return Status::TimedOut("embedding generation");
  DefactorizerStats stats;
  stats.extensions = prefilter_rejections;
  stats.chord_rejections = prefilter_rejections;
  for (EmitContext& ctx : ctxs) {
    ctx.Flush();  // tail batch; a no-op once the shared stop is up
    stats.emitted += ctx.stats.emitted;
    stats.extensions += ctx.stats.extensions;
    stats.chord_rejections += ctx.stats.chord_rejections;
  }
  return stats;
}

}  // namespace wireframe
