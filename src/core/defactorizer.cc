#include "core/defactorizer.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <mutex>
#include <utility>

#include "query/shape.h"
#include "util/interrupt.h"
#include "util/logging.h"
#include "util/span_kernels.h"

namespace wireframe {

namespace {

/// Root pairs per morsel. Each pair roots a whole enumeration
/// subtree, so morsels are small to balance skew; the dispatch cost is
/// one fetch_add per morsel.
constexpr uint64_t kRootMorsel = 64;

/// Rows per output batch. Every emission is written into the context's
/// batch and reaches the sink one EmitBatch call per this many rows, so
/// a declining sink can leave at most this many rows made but unseen.
constexpr size_t kBatchRows = 256;

/// Words in the zero-padded row template. A row of at most this many
/// columns is written as one fixed-size copy of the template, which the
/// compiler turns into a few vector stores; the batch carries this many
/// words of tail slack so the last row's copy stays in bounds.
constexpr size_t kRowWords = 16;

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

/// One pendant query edge: `var` is bound by this edge alone, and its
/// candidates are one span keyed by the other endpoint, a skeleton
/// variable.
struct LeafEdge {
  uint32_t edge;
  /// The leaf variable.
  VarId var;
  /// True: the key is the edge's src, so the span is FwdNeighbors(key);
  /// false: BwdNeighbors.
  bool fwd;
};

/// Recursive enumeration state shared across frames.
struct EmitContext {
  const QueryGraph* query;
  const AnswerGraph* ag;
  /// The skeleton edges in enumeration order; the first one roots.
  const std::vector<uint32_t>* skeleton;
  /// depth_chords[d]: the chords that become checkable at skeleton depth
  /// d >= 1, in intersection form (precomputed from the skeleton order:
  /// the bound set at each depth is static, so orientation needs no
  /// runtime probe).
  const std::vector<std::vector<IntersectChord>>* depth_chords;
  /// The leaf edges in product order: the last one varies fastest.
  const std::vector<LeafEdge>* leaves;
  /// var_leaves[v]: indexes into *leaves of the leaf edges keyed by v.
  const std::vector<std::vector<uint32_t>>* var_leaves;
  Sink* sink;
  InterruptProbe probe;
  std::vector<NodeId> binding;
  DefactorizerStats stats;
  bool stop = false;  // sink asked to stop, or the run was interrupted
  /// Ping-pong intersection scratch, indexed by depth: a frame only
  /// touches its own depth's buffers, so recursion below it is safe.
  std::vector<std::vector<NodeId>> isect_a;
  std::vector<std::vector<NodeId>> isect_b;
  /// leaf_spans[i]: leaf i's span under the current skeleton binding,
  /// fetched when its key was bound.
  std::vector<std::span<const NodeId>> leaf_spans;
  /// The product's odometer: a position in each outer leaf span.
  std::vector<size_t> odometer;
  /// True when a row fits row_template (width <= kRowWords).
  bool padded = false;
  /// The binding, zero-padded to kRowWords: the source of every row
  /// EmitSpan copies when `padded`.
  std::array<NodeId, kRowWords> row_template{};
  /// The output batch: kBatchRows rows of binding.size() columns,
  /// row-major, plus kRowWords words of slack; the first batch_rows are
  /// filled.
  std::vector<NodeId> batch;
  size_t batch_rows = 0;

  /// Amortized deadline + cancellation probe; also true once the run
  /// stopped.
  bool DeadlineHit() {
    if (stop) return true;
    if (!probe.Hit()) return false;
    stop = true;
    return true;
  }

  /// Hands the filled rows to the sink; `emitted` counts the rows it
  /// consumed. A decline stops the run, and so does a cancel or an
  /// expired deadline, checked once per batch: one skeleton binding can
  /// expand to any number of rows, and this is the only check its
  /// product passes.
  void Flush() {
    if (batch_rows == 0) return;
    if (!DeliverBatch(sink, batch.data(), batch_rows, binding.size(),
                      &stats.emitted)) {
      stop = true;
    }
    batch_rows = 0;
    if (!probe.CheckNow("embedding generation").ok()) stop = true;
  }

  /// Appends the current (complete) binding as one row.
  void EmitRow() {
    std::copy(binding.begin(), binding.end(),
              batch.data() + batch_rows * binding.size());
    if (++batch_rows == kBatchRows) Flush();
  }

  /// Appends one row per candidate: `cols` (Columns()) with `free_var`
  /// set to the candidate, with no per-candidate recursion. The span
  /// goes into the batch in chunks of whatever room is left. Returns the
  /// rows written, fewer than the candidates once the run stops.
  size_t EmitSpan(const NodeId* cols, std::span<const NodeId> candidates,
                  VarId free_var) {
    const size_t width = binding.size();
    size_t i = 0;
    while (i < candidates.size() && !stop) {
      const size_t take =
          std::min(candidates.size() - i, kBatchRows - batch_rows);
      NodeId* row = batch.data() + batch_rows * width;
      if (padded) {
        for (size_t k = 0; k < take; ++k, row += width) {
          std::memcpy(row, cols, kRowWords * sizeof(NodeId));
          row[free_var] = candidates[i + k];
        }
      } else {
        for (size_t k = 0; k < take; ++k, row += width) {
          std::copy(cols, cols + width, row);
          row[free_var] = candidates[i + k];
        }
      }
      i += take;
      batch_rows += take;
      if (batch_rows == kBatchRows) Flush();
    }
    return i;
  }

  /// The current binding, padded into row_template when rows fit it: the
  /// columns EmitSpan copies.
  NodeId* Columns() {
    if (!padded) return binding.data();
    std::copy(binding.begin(), binding.end(), row_template.begin());
    return row_template.data();
  }

  /// Fetches the span of every leaf keyed by `var`, which was just
  /// bound. False if one is empty: no row extends this binding.
  bool FetchLeaves(VarId var) {
    const NodeId key = binding[var];
    for (const uint32_t i : (*var_leaves)[var]) {
      const LeafEdge& leaf = (*leaves)[i];
      const PairSet& set = ag->Set(leaf.edge);
      leaf_spans[i] = leaf.fwd ? set.FwdNeighbors(key) : set.BwdNeighbors(key);
      ++stats.extensions;
      if (leaf_spans[i].empty()) return false;
    }
    return true;
  }

  /// Writes the rows of one complete skeleton binding: the Cartesian
  /// product of its (non-empty) leaf spans. An odometer walks the outer
  /// spans, the last leaf varying fastest, and the innermost span goes
  /// through EmitSpan: the rows and their order are those of
  /// depth-first recursion over the leaves.
  void EmitProduct() {
    if (leaves->empty()) {
      EmitRow();
      return;
    }
    NodeId* cols = Columns();
    const size_t inner = leaves->size() - 1;
    for (size_t i = 0; i < inner; ++i) {
      odometer[i] = 0;
      cols[(*leaves)[i].var] = leaf_spans[i][0];
    }
    const VarId inner_var = (*leaves)[inner].var;
    for (;;) {
      stats.extensions += EmitSpan(cols, leaf_spans[inner], inner_var);
      if (stop) return;
      size_t i = inner;
      for (;;) {
        if (i == 0) return;  // every outer span wrapped: product done
        --i;
        const std::span<const NodeId> span = leaf_spans[i];
        if (++odometer[i] < span.size()) {
          cols[(*leaves)[i].var] = span[odometer[i]];
          break;
        }
        odometer[i] = 0;
        cols[(*leaves)[i].var] = span[0];
      }
    }
  }
};

void EmitStep(EmitContext& ctx, size_t depth);

/// Binds `free_var` to each candidate in turn and recurses, skipping a
/// candidate whose leaf spans are empty.
void BindAndRecurse(EmitContext& ctx, size_t depth,
                    std::span<const NodeId> candidates, VarId free_var) {
  NodeId& free_slot = ctx.binding[free_var];
  for (const NodeId value : candidates) {
    if (ctx.stop) break;
    free_slot = value;
    if (ctx.FetchLeaves(free_var)) EmitStep(ctx, depth + 1);
  }
  free_slot = kInvalidNode;
}

/// A depth with chords to check: instead of scanning `ext` and probing
/// every chord per candidate, intersect the extension span with each
/// chord span (both sorted CSR spans) and recurse only over the
/// survivors — or, at the last depth of a leafless query, write them
/// into the output batch as one span. Accounting counts what
/// per-candidate probing would: one extension per span candidate, one
/// rejection per candidate failing any chord — so stats are invariant
/// across kernel dispatch and thread count.
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
  if (depth + 1 == ctx.skeleton->size() && ctx.leaves->empty()) {
    ctx.EmitSpan(ctx.Columns(), current, free_var);
    return;
  }
  BindAndRecurse(ctx, depth, current, free_var);
}

void EmitStep(EmitContext& ctx, size_t depth) {
  if (ctx.stop) return;
  if (depth == ctx.skeleton->size()) {
    ctx.EmitProduct();
    return;
  }
  const uint32_t e = (*ctx.skeleton)[depth];
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
  // The root partition binds depth 0, and the skeleton order is
  // connected, so every later edge has at least one endpoint bound.
  WF_DCHECK(src_bound || dst_bound) << "disconnected embedding plan";
  const VarId free_var = src_bound ? qe.dst : qe.src;
  const NodeId key = src_bound ? src_slot : dst_slot;
  const std::span<const NodeId> ext =
      src_bound ? set.FwdNeighbors(key) : set.BwdNeighbors(key);
  if (!(*ctx.depth_chords)[depth].empty()) {
    IntersectAndRecurse(ctx, depth, ext, free_var);
    return;
  }
  ctx.stats.extensions += ext.size();
  if (depth + 1 == ctx.skeleton->size() && ctx.leaves->empty()) {
    // Last depth, nothing to check or multiply: the span is the rows.
    ctx.EmitSpan(ctx.Columns(), ext, free_var);
    return;
  }
  BindAndRecurse(ctx, depth, ext, free_var);
}

}  // namespace

Result<DefactorizerStats> Defactorizer::Emit(
    const EmbeddingPlan& plan, Sink* sink,
    const DefactorizerOptions& options, const EngineOptions& run) const {
  WF_CHECK(plan.join_order.size() == query_->NumEdges())
      << "embedding plan must cover every query edge";
  WF_CHECK(!plan.join_order.empty()) << "embedding plan has no edges";
  WF_CHECK(ag_->IsFrozen()) << "phase 2 requires a frozen AnswerGraph";

  // The chords phase 2 checks count toward the variable degrees, so a
  // chord endpoint is never a leaf variable.
  std::vector<uint32_t> chord_slots;
  std::vector<std::pair<VarId, VarId>> links;
  if (options.use_chords) {
    for (uint32_t slot = ag_->NumQueryEdges(); slot < ag_->NumEdgeSets();
         ++slot) {
      if (!ag_->IsMaterialized(slot)) continue;
      chord_slots.push_back(slot);
      links.emplace_back(ag_->SrcVar(slot), ag_->DstVar(slot));
    }
  }

  // Split the plan into skeleton and leaves. The skeleton keeps the
  // plan's order, each time taking the next edge connected to the bound
  // set; a star keeps its first plan edge as the skeleton. The leaves
  // keep the plan's order too, as the product's.
  //
  // Each materialized chord is checked at the first skeleton depth after
  // which both its endpoints are bound. At depth 0 it filters the root
  // pairs; at any later depth exactly one endpoint — the edge's free
  // variable — is new (the skeleton order is connected), so the chord
  // becomes a span intersection over the extension candidates.
  const std::vector<uint32_t>& order = plan.join_order;
  std::vector<bool> leaf = LeafEdges(*query_, links);
  if (std::find(leaf.begin(), leaf.end(), false) == leaf.end()) {
    leaf[order[0]] = false;
  }
  std::vector<uint32_t> pending;
  for (const uint32_t e : order) {
    if (!leaf[e]) pending.push_back(e);
  }
  std::vector<uint32_t> skeleton;
  std::vector<uint32_t> root_chords;
  std::vector<std::vector<IntersectChord>> depth_chords;
  std::vector<bool> bound(query_->NumVars(), false);
  while (!pending.empty()) {
    auto next = pending.begin();
    if (!skeleton.empty()) {
      next = std::find_if(pending.begin(), pending.end(), [&](uint32_t e) {
        return bound[query_->Edge(e).src] || bound[query_->Edge(e).dst];
      });
      WF_CHECK(next != pending.end()) << "disconnected embedding plan";
    }
    const QueryEdge& qe = query_->Edge(*next);
    auto bound_after = [&](VarId v) {
      return bound[v] || v == qe.src || v == qe.dst;
    };
    depth_chords.emplace_back();
    for (const uint32_t slot : chord_slots) {
      const VarId cu = ag_->SrcVar(slot);
      const VarId cv = ag_->DstVar(slot);
      if (!bound_after(cu) || !bound_after(cv) || (bound[cu] && bound[cv])) {
        continue;  // not checkable yet, or checked at an earlier depth
      }
      if (skeleton.empty()) {
        root_chords.push_back(slot);
        continue;
      }
      const bool cu_new = !bound[cu];
      const bool cv_new = !bound[cv];
      WF_DCHECK(cu_new != cv_new) << "disconnected embedding plan";
      depth_chords.back().push_back({slot, cu_new ? cv : cu, /*fwd=*/cv_new});
    }
    bound[qe.src] = true;
    bound[qe.dst] = true;
    skeleton.push_back(*next);
    pending.erase(next);
  }
  std::vector<LeafEdge> leaves;
  std::vector<std::vector<uint32_t>> var_leaves(query_->NumVars());
  for (const uint32_t e : order) {
    if (!leaf[e]) continue;
    const QueryEdge& qe = query_->Edge(e);
    const bool fwd = bound[qe.src];
    WF_CHECK(fwd != bound[qe.dst]) << "leaf edge not keyed by the skeleton";
    var_leaves[fwd ? qe.src : qe.dst].push_back(
        static_cast<uint32_t>(leaves.size()));
    leaves.push_back({e, fwd ? qe.dst : qe.src, fwd});
  }

  const size_t width = query_->NumVars();
  auto init_context = [&](EmitContext& ctx) {
    ctx.query = query_;
    ctx.ag = ag_;
    ctx.skeleton = &skeleton;
    ctx.depth_chords = &depth_chords;
    ctx.leaves = &leaves;
    ctx.var_leaves = &var_leaves;
    ctx.probe = InterruptProbe(run.deadline, run.cancel);
    ctx.binding.assign(width, kInvalidNode);
    ctx.isect_a.resize(skeleton.size());
    ctx.isect_b.resize(skeleton.size());
    ctx.leaf_spans.resize(leaves.size());
    ctx.odometer.resize(leaves.size());
    ctx.padded = width <= kRowWords;
    ctx.batch.resize(kBatchRows * width + kRowWords);
  };

  // Partition the first skeleton edge's pairs; each worker runs the
  // recursive EmitStep over its own context from depth 1, draining rows
  // through a private SinkShard.
  ThreadPool* pool = run.Pool();
  const uint32_t e0 = skeleton[0];
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
          if (ctx.FetchLeaves(qe0.src) && ctx.FetchLeaves(qe0.dst)) {
            EmitStep(ctx, 1);
          }
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
