#ifndef WIREFRAME_CORE_ANSWER_GRAPH_H_
#define WIREFRAME_CORE_ANSWER_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "planner/embedding_planner.h"
#include "query/query_graph.h"
#include "util/common.h"
#include "util/csr.h"
#include "util/span_kernels.h"

namespace wireframe {

class ThreadPool;

/// Thread-local buffer for one morsel's share of an extension level.
///
/// During answer-graph generation each worker appends the pairs its
/// morsel produced into a private shard — plain vector pushes, no
/// synchronization. At the level barrier the shards concatenate in shard
/// order (ConcatShards) into the list the level's PairSet is built from;
/// because morsel boundaries depend only on the frontier size and the
/// morsel size, that list is identical for every thread count.
class PairSetShard {
 public:
  void Add(NodeId u, NodeId v) { pairs_.emplace_back(u, v); }

  uint64_t Size() const { return pairs_.size(); }
  bool Empty() const { return pairs_.empty(); }
  const std::vector<std::pair<NodeId, NodeId>>& pairs() const {
    return pairs_;
  }

  /// Edge walks charged while filling this shard; summed into the
  /// generator's counter at the level barrier.
  uint64_t edge_walks = 0;

 private:
  std::vector<std::pair<NodeId, NodeId>> pairs_;
};

/// The pairs of `shards`, concatenated in shard order.
std::vector<std::pair<NodeId, NodeId>> ConcatShards(
    std::span<const PairSetShard> shards);

/// The materialization of one query edge (or chord): a set of data node
/// pairs, built once and afterwards only shrunk.
///
/// The set is two Csr directions over the same pairs (util/csr.h: sorted
/// neighbor spans, prefix-offset indexed — the shape of the triple
/// store's indexes), built once from the pair list of one extension level
/// or chord: the list's own direction as is, the other by a radix sort on
/// the neighbor id (Csr::BuildTransposed). Phase 1 then deletes pairs, one
/// at a time (edge burnback) or wholesale per endpoint node (node
/// burnback), through a liveness overlay sized by the set, never by the
/// dictionary:
///
///   - one live bit per forward entry;
///   - for each backward entry, the position of its forward entry;
///   - per-node live counters in each direction, kept at the node's span
///     start;
///   - where the far endpoint's counter is, per entry of each direction:
///     a forward entry's target counter and a backward entry's source
///     counter. An erasure finds both counters it drops from the entry
///     itself, with no Csr lookup per erased pair.
///
/// Every reader scans spans and skips entries whose bit is clear; nothing
/// is hashed. Freeze() compacts the live entries into fresh Csrs in one
/// order-preserving pass and drops the overlay; a set without an overlay
/// has every entry live, so the readers below serve both stages with one
/// body. Phase 2 — defactorization, the bushy executor's leaf scans,
/// chord filters, the counting DP — reads the frozen spans directly.
///
/// Mutators WF_CHECK that the set is not frozen, in every build type:
/// frozen sets are shared read-only across queries (runtime AG cache), so
/// a mutation that only tripped a debug assert would be silent memory
/// corruption in Release.
class PairSet {
 public:
  /// The empty set an unmaterialized edge-set slot holds.
  PairSet() = default;

  /// Builds the set from `pairs`, which must be duplicate-free (checked
  /// in debug builds; extension frontiers are distinct, store spans are
  /// duplicate-free and chord lists are deduplicated). A list already
  /// sorted by (src, dst) or by (dst, src) — what extension levels and
  /// chord lists produce — becomes that direction's Csr as is, and the
  /// other direction is radix-built from it in linear passes; any other
  /// order is sorted first.
  explicit PairSet(std::vector<std::pair<NodeId, NodeId>> pairs);

  /// True iff (u, v) is live.
  bool Contains(NodeId u, NodeId v) const {
    const Csr::Range r = fwd_.RangeOf(u);
    const std::span<const NodeId> span = fwd_.Slice(r);
    const size_t i = SpanLowerBound(span, v);
    return i < span.size() && span[i] == v &&
           IsLive(r.begin + static_cast<uint32_t>(i));
  }

  /// Deletes (u, v); returns false if it was not live.
  bool Erase(NodeId u, NodeId v);

  /// Erases every live pair (u, *) in one reverse sweep over u's span,
  /// invoking fn(v, DstCount(v)) per erased pair after the counters have
  /// dropped: the second argument is how many live pairs v has left, so a
  /// caller sees v's 1 -> 0 transition without a lookup. Returns the
  /// number erased, which is checked equal to SrcCount(u) before the
  /// sweep (burnback's accounting must stay exact).
  template <typename Fn>
  uint32_t EraseSrc(NodeId u, Fn&& fn) {
    return EraseAll</*kAtSrc=*/true>(u, fn);
  }

  /// Mirror of EraseSrc for pairs (*, v); invokes fn(u, SrcCount(u)) per
  /// erased pair.
  template <typename Fn>
  uint32_t EraseDst(NodeId v, Fn&& fn) {
    return EraseAll</*kAtSrc=*/false>(v, fn);
  }

  /// Compacts the live entries into fresh forward/backward Csrs (one
  /// linear, order-preserving pass, no sort) and drops the overlay. The
  /// result equals Csr::Build over the live pairs. Idempotent. After
  /// this, Erase/EraseSrc/EraseDst are program errors.
  void Freeze();

  /// True iff the set is frozen (immutable, overlay dropped).
  bool IsFrozen() const { return frozen_; }

  /// Heap bytes of the frozen Csr arrays (0 before Freeze — only frozen
  /// sets are byte-accounted, for the runtime's AG cache quotas).
  uint64_t FrozenByteSize() const {
    return frozen_ ? fwd_.ByteSize() + bwd_.ByteSize() : 0;
  }

  /// Number of live pairs.
  uint64_t Size() const { return size_; }

  /// Live pairs with source u / target v.
  uint32_t SrcCount(NodeId u) const {
    return LiveIn(src_live_, fwd_.RangeOf(u));
  }
  uint32_t DstCount(NodeId v) const {
    return LiveIn(dst_live_, bwd_.RangeOf(v));
  }

  /// Distinct live sources / targets.
  uint64_t DistinctSrcCount() const { return distinct_src_; }
  uint64_t DistinctDstCount() const { return distinct_dst_; }

  /// Every source / target the set was built with, ascending, including
  /// those with no live pair left: the i-th has SrcCountAt(i) /
  /// DstCountAt(i) live pairs. Positional, for merges against other
  /// sorted key lists.
  std::span<const NodeId> SrcKeys() const { return fwd_.Nodes(); }
  std::span<const NodeId> DstKeys() const { return bwd_.Nodes(); }
  uint32_t SrcCountAt(size_t i) const {
    return LiveIn(src_live_, fwd_.RangeAt(i));
  }
  uint32_t DstCountAt(size_t i) const {
    return LiveIn(dst_live_, bwd_.RangeAt(i));
  }

  /// Raw frozen spans (program error before Freeze, when they may still
  /// hold erased entries): the sorted duplicate-free inputs the span
  /// kernels (util/span_kernels.h) operate on. FwdNeighbors(u) = all v
  /// with (u, v) live; BwdNeighbors(v) = all u. Spans stay valid as long
  /// as the set — frozen sets are immutable.
  std::span<const NodeId> FwdNeighbors(NodeId u) const {
    WF_DCHECK(frozen_) << "FwdNeighbors on an unfrozen PairSet";
    return fwd_.Neighbors(u);
  }
  std::span<const NodeId> BwdNeighbors(NodeId v) const {
    WF_DCHECK(frozen_) << "BwdNeighbors on an unfrozen PairSet";
    return bwd_.Neighbors(v);
  }

  /// The frozen Csrs themselves, for batch entry points
  /// (Csr::ContainsMany, positional scans). Program error before Freeze.
  const Csr& FwdCsr() const {
    WF_DCHECK(frozen_) << "FwdCsr on an unfrozen PairSet";
    return fwd_;
  }
  const Csr& BwdCsr() const {
    WF_DCHECK(frozen_) << "BwdCsr on an unfrozen PairSet";
    return bwd_;
  }

  /// Invokes fn(v) for every live pair (u, v), v ascending. fn may erase
  /// from the set.
  template <typename Fn>
  void ForEachFwd(NodeId u, Fn&& fn) const {
    const Csr::Range r = fwd_.RangeOf(u);
    const std::span<const NodeId> targets = fwd_.Entries();
    for (uint32_t k = r.begin; k < r.end; ++k) {
      if (IsLive(k)) fn(targets[k]);
    }
  }

  /// Invokes fn(u) for every live pair (u, v), u ascending.
  template <typename Fn>
  void ForEachBwd(NodeId v, Fn&& fn) const {
    const Csr::Range r = bwd_.RangeOf(v);
    const std::span<const NodeId> sources = bwd_.Entries();
    for (uint32_t j = r.begin; j < r.end; ++j) {
      if (IsLiveBwd(j)) fn(sources[j]);
    }
  }

  /// Invokes fn(u, v) for every live pair, source-major ascending.
  template <typename Fn>
  void ForEachPair(Fn&& fn) const {
    const std::span<const NodeId> targets = fwd_.Entries();
    fwd_.ForEachEntry([&](NodeId u, uint32_t k) {
      if (IsLive(k)) fn(u, targets[k]);
    });
  }

  /// Invokes fn(u) for every distinct live source, ascending.
  template <typename Fn>
  void ForEachSrc(Fn&& fn) const {
    ForEachLiveKey(fwd_, src_live_, fn);
  }
  /// Invokes fn(v) for every distinct live target, ascending.
  template <typename Fn>
  void ForEachDst(Fn&& fn) const {
    ForEachLiveKey(bwd_, dst_live_, fn);
  }

 private:
  /// Forward entry k's live bit (every entry is live without an overlay).
  bool IsLive(uint32_t k) const {
    return live_.empty() || ((live_[k >> 6] >> (k & 63)) & 1) != 0;
  }
  /// Backward entry j's live bit, through its forward entry.
  bool IsLiveBwd(uint32_t j) const {
    return bwd_to_fwd_.empty() || IsLive(bwd_to_fwd_[j]);
  }

  /// Live entries of the key whose span is `r`: its counter, or its span
  /// length without an overlay.
  static uint32_t LiveIn(const std::vector<uint32_t>& counters,
                         Csr::Range r) {
    if (r.empty()) return 0;
    return counters.empty() ? r.end - r.begin : counters[r.begin];
  }

  /// Invokes fn(key), ascending, for every key of `csr` with a live entry.
  template <typename Fn>
  static void ForEachLiveKey(const Csr& csr,
                             const std::vector<uint32_t>& counters,
                             Fn& fn) {
    const std::span<const NodeId> keys = csr.Nodes();
    for (size_t i = 0; i < keys.size(); ++i) {
      if (counters.empty() || counters[csr.RangeAt(i).begin] > 0) {
        fn(keys[i]);
      }
    }
  }

  /// Body of EraseSrc (kAtSrc) and EraseDst: sweeps `key`'s span in its
  /// own direction, reaches each entry's live bit through the forward
  /// entry it mirrors and the far endpoint's counter through the entry's
  /// recorded position.
  template <bool kAtSrc, typename Fn>
  uint32_t EraseAll(NodeId key, Fn& fn) {
    WF_CHECK(!frozen_) << (kAtSrc ? "EraseSrc" : "EraseDst")
                       << " on a frozen PairSet";
    const Csr& own = kAtSrc ? fwd_ : bwd_;
    const std::vector<uint32_t>& far_at = kAtSrc ? dst_at_ : src_at_;
    const std::vector<uint32_t>& far_live = kAtSrc ? dst_live_ : src_live_;
    const Csr::Range r = own.RangeOf(key);
    if (r.empty()) return 0;
    const uint32_t live_before = (kAtSrc ? src_live_ : dst_live_)[r.begin];
    uint32_t erased = 0;
    for (uint32_t j = r.end; j-- > r.begin;) {
      const uint32_t k = kAtSrc ? j : bwd_to_fwd_[j];
      if (!IsLive(k)) continue;
      const uint32_t w_at = far_at[j];
      Drop(k, kAtSrc ? r.begin : w_at, kAtSrc ? w_at : r.begin);
      ++erased;
      fn(own.Entries()[j], far_live[w_at]);
    }
    WF_DCHECK(erased == live_before) << "erase sweep accounting drifted";
    return erased;
  }

  /// Clears live forward entry k, whose source's counter sits at src_at
  /// and whose target's at dst_at, and drops every counter it contributed
  /// to.
  void Drop(uint32_t k, uint32_t src_at, uint32_t dst_at) {
    live_[k >> 6] &= ~(uint64_t{1} << (k & 63));
    --size_;
    if (--src_live_[src_at] == 0) --distinct_src_;
    if (--dst_live_[dst_at] == 0) --distinct_dst_;
  }

  Csr fwd_;
  Csr bwd_;
  /// The overlay (empty once frozen, and for the empty set).
  std::vector<uint64_t> live_;
  std::vector<uint32_t> bwd_to_fwd_;
  /// Live counters, at each node's span start in its own direction.
  std::vector<uint32_t> src_live_;
  std::vector<uint32_t> dst_live_;
  /// Counter positions of the far endpoint: forward entry k's target
  /// counter is dst_live_[dst_at_[k]], backward entry j's source counter
  /// is src_live_[src_at_[j]].
  std::vector<uint32_t> dst_at_;
  std::vector<uint32_t> src_at_;
  uint64_t size_ = 0;
  uint64_t distinct_src_ = 0;
  uint64_t distinct_dst_ = 0;
  bool frozen_ = false;
};

/// The factorized answer set (paper §2): for every query edge — and every
/// chord, for cyclic queries — the set of data-graph node pairs that can
/// still participate in an embedding.
///
/// Edge sets are indexed 0..NumEdges-1 for query edges and NumEdges.. for
/// chords. A variable is "touched" once at least one incident edge set has
/// been materialized; its candidate set is then the set of nodes alive at
/// that variable. Aliveness is derived, not stored: node c is alive at var
/// v iff every *materialized* edge set incident to v contains a live pair
/// with c on v's side. Burnback (core/burnback.h) maintains this
/// invariant by cascading deletions.
class AnswerGraph {
 public:
  /// Creates empty edge sets for the query's edges; chords are registered
  /// afterwards via AddChordSlot (they behave like unlabeled query edges).
  explicit AnswerGraph(const QueryGraph& query);

  /// Registers a chord between u and v; returns its edge-set index.
  uint32_t AddChordSlot(VarId u, VarId v);

  uint32_t NumEdgeSets() const {
    return static_cast<uint32_t>(sets_.size());
  }
  uint32_t NumQueryEdges() const { return num_query_edges_; }
  uint32_t NumVars() const {
    return static_cast<uint32_t>(incident_.size());
  }

  PairSet& Set(uint32_t index) { return sets_[index]; }
  const PairSet& Set(uint32_t index) const { return sets_[index]; }

  /// Endpoints of edge-set `index` (query edge direction, or chord (u,v)).
  VarId SrcVar(uint32_t index) const { return src_var_[index]; }
  VarId DstVar(uint32_t index) const { return dst_var_[index]; }

  /// Builds edge set `index` from `pairs` (see PairSet's constructor for
  /// the input contract) and marks it materialized: it now constrains its
  /// endpoints. A set is materialized once — one extension level or one
  /// chord; a second call is a program error.
  void Materialize(uint32_t index,
                   std::vector<std::pair<NodeId, NodeId>> pairs);
  bool IsMaterialized(uint32_t index) const { return materialized_[index]; }

  /// Freezes every edge set (see PairSet::Freeze). Call once phase 1 —
  /// including the final burnback — is over; phase 2 then reads the
  /// compacted spans with no liveness overlay. Sets freeze independently,
  /// one set per morsel on `pool` (borrowed; null runs on InlinePool);
  /// `weight` is the task-group scheduler share on a shared pool.
  /// Idempotent.
  void Freeze(ThreadPool* pool = nullptr, uint32_t weight = 1);

  /// True iff Freeze has run.
  bool IsFrozen() const { return frozen_; }

  /// Total heap bytes of the frozen edge sets plus the topology vectors —
  /// what one cached AG costs to keep resident. Meaningful once frozen.
  uint64_t FrozenByteSize() const;

  /// Edge sets incident to variable v (both query edges and chords).
  const std::vector<uint32_t>& IncidentSets(VarId v) const {
    return incident_[v];
  }

  /// True iff any incident edge set of v is materialized.
  bool IsTouched(VarId v) const;

  /// "No edge set": the default `except` below.
  static constexpr uint32_t kNoSet = UINT32_MAX;

  /// True iff node c is alive at variable v (see class comment), judged
  /// by v's materialized incident sets other than `except`; false if
  /// there are none.
  bool IsAlive(VarId v, NodeId c, uint32_t except = kNoSet) const;

  /// Number of live pairs incident to (v, c) in edge set `index`.
  uint32_t CountAt(uint32_t index, VarId v, NodeId c) const;

  /// Invokes fn(c), ascending, for every node alive at v (IsAlive with the
  /// same `except`). Iterates the materialized incident set other than
  /// `except` with the fewest distinct nodes on v's side and filters by
  /// IsAlive; returns false, visiting nothing, if there is no such set.
  template <typename Fn>
  bool ForEachCandidate(VarId v, Fn&& fn, uint32_t except = kNoSet) const {
    return ScanPilot(
        v, except, [](NodeId) { return false; }, fn);
  }

  /// Invokes fn(c), ascending, for every node alive at v without edge set
  /// `index` (IsAlive with except = index) that has no live pair on v's
  /// side of `index`: the candidates that extending into `index` starved.
  /// Walks the pilot's live keys (as ForEachCandidate does) in one merge
  /// with `index`'s sorted keys at v; a key `index` holds with a live
  /// count is covered and costs no lookup, only the others pay IsAlive.
  /// Returns false, visiting nothing, if no other materialized set
  /// constrains v.
  template <typename Fn>
  bool ForEachStarved(VarId v, uint32_t index, Fn&& fn) const {
    const PairSet& fresh = sets_[index];
    const bool at_src = src_var_[index] == v;
    const std::span<const NodeId> keys =
        at_src ? fresh.SrcKeys() : fresh.DstKeys();
    size_t i = 0;
    auto covered = [&](NodeId c) {
      while (i < keys.size() && keys[i] < c) ++i;
      return i < keys.size() && keys[i] == c &&
             (at_src ? fresh.SrcCountAt(i) : fresh.DstCountAt(i)) > 0;
    };
    return ScanPilot(v, index, covered, fn);
  }

  /// Number of nodes alive at v (linear scan; diagnostics and tests).
  uint64_t CandidateCount(VarId v) const;

  /// Total live pairs across the query edges (|AG| as the paper reports
  /// it; chords are bookkeeping, not part of the answer graph proper).
  uint64_t TotalQueryEdgePairs() const;

  /// Exact per-edge statistics for the embedding planner.
  std::vector<AgEdgeStats> Stats() const;

 private:
  /// The materialized incident set of v other than `except` with the
  /// fewest distinct nodes at v, or kNoSet.
  uint32_t PilotSet(VarId v, uint32_t except) const;

  /// True iff c has a live pair on v's side of every materialized
  /// incident set of v other than `except` and `pilot`: IsAlive for a
  /// live key of the pilot, without re-checking the pilot.
  bool LiveBeyond(VarId v, NodeId c, uint32_t except, uint32_t pilot) const;

  /// Body of ForEachCandidate and ForEachStarved: invokes fn(c),
  /// ascending, for every live key c on v's side of PilotSet(v, except)
  /// with skip(c) false that is live in v's other sets. Returns false,
  /// visiting nothing, if there is no pilot.
  template <typename Skip, typename Fn>
  bool ScanPilot(VarId v, uint32_t except, Skip&& skip, Fn& fn) const {
    const uint32_t pilot = PilotSet(v, except);
    if (pilot == kNoSet) return false;
    auto visit = [&](NodeId c) {
      if (!skip(c) && LiveBeyond(v, c, except, pilot)) fn(c);
    };
    if (src_var_[pilot] == v) {
      sets_[pilot].ForEachSrc(visit);
    } else {
      sets_[pilot].ForEachDst(visit);
    }
    return true;
  }

  uint32_t num_query_edges_ = 0;
  std::vector<PairSet> sets_;
  std::vector<VarId> src_var_;
  std::vector<VarId> dst_var_;
  std::vector<bool> materialized_;
  std::vector<std::vector<uint32_t>> incident_;
  bool frozen_ = false;
};

}  // namespace wireframe

#endif  // WIREFRAME_CORE_ANSWER_GRAPH_H_
