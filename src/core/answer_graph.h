#ifndef WIREFRAME_CORE_ANSWER_GRAPH_H_
#define WIREFRAME_CORE_ANSWER_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "planner/embedding_planner.h"
#include "query/query_graph.h"
#include "util/common.h"
#include "util/csr.h"
#include "util/flat_hash.h"
#include "util/hash.h"

namespace wireframe {

class ThreadPool;

/// Thread-local builder for one morsel's share of a PairSet.
///
/// During parallel answer-graph generation each worker appends the pairs
/// its morsel produced into a private shard — plain vector pushes, no
/// synchronization, no hashing. At the level barrier the shards are
/// merged into the shared PairSet in shard-index order; because morsel
/// boundaries depend only on the frontier size and the morsel size, the
/// merged insertion sequence is deterministic and identical for every
/// thread count. The split keeps the PairSet itself single-writer: it is
/// only ever mutated by the merging thread, which is what makes the rest
/// of the read-mostly AnswerGraph safe to share across workers.
class PairSetShard {
 public:
  void Add(NodeId u, NodeId v) { pairs_.emplace_back(u, v); }

  uint64_t Size() const { return pairs_.size(); }
  bool Empty() const { return pairs_.empty(); }
  const std::vector<std::pair<NodeId, NodeId>>& pairs() const {
    return pairs_;
  }

  /// Edge walks charged while filling this shard; summed into the
  /// generator's counter at the merge barrier.
  uint64_t edge_walks = 0;

 private:
  std::vector<std::pair<NodeId, NodeId>> pairs_;
};

/// The materialization of one query edge (or chord): a dynamic set of data
/// node pairs with per-endpoint live counters and adjacency.
///
/// The set has two lifecycle forms:
///
///   1. **Build form** (mutable, hash-indexed). Pairs can be deleted
///      individually (edge burnback) or wholesale per endpoint node (node
///      burnback); adjacency lists are append-only and filtered against
///      the live-pair set on iteration, which keeps deletion O(1) per
///      pair at the cost of a membership probe during scans — the classic
///      tombstone trade-off, chosen because burnback deletes in bulk and
///      never re-inserts.
///   2. **Frozen form** (immutable, CSR-indexed). Freeze() converts the
///      live pairs into forward/backward Csr arrays (util/csr.h: sorted
///      neighbor spans, prefix-offset indexed, same shape as
///      TripleStore::PredIndex) and releases the hash tables. Every read
///      then scans cache-linear spans instead of probing hash tables;
///      mutation is no longer allowed. Phase 2 — defactorization, the
///      bushy executor's leaf scans and chord filters — reads the same
///      pair sets millions of times after phase 1 stops mutating them,
///      which is exactly the access pattern CSR wins on.
///
/// All build-form indexes are flat open-addressing tables
/// (util/flat_hash.h); the node-pair insert path is the inner loop of
/// answer-graph generation.
class PairSet {
 public:
  PairSet() = default;

  /// Inserts (u, v); returns false if already present. Must not be called
  /// for a pair that was previously erased (adjacency lists would then
  /// hold duplicates); generation never does.
  bool Add(NodeId u, NodeId v);

  /// True iff (u, v) is live.
  bool Contains(NodeId u, NodeId v) const {
    if (frozen_) return fwd_csr_.Contains(u, v);
    return live_.Contains(PackPair(u, v));
  }

  /// Inserts every pair of `shard` (duplicates are ignored, as in Add).
  /// Returns the number of pairs actually inserted. Single-writer: called
  /// only from the merging thread at a level barrier.
  uint64_t MergeShard(const PairSetShard& shard);

  /// Pre-sizes the live-pair index for `n` pairs (bulk inserts whose
  /// cardinality is known up front, e.g. canonicalized chord lists).
  void Reserve(uint64_t n) { live_.Reserve(n); }

  /// Deletes (u, v); returns false if it was not live.
  bool Erase(NodeId u, NodeId v);

  /// Erases every live pair (u, *) in one reverse sweep over u's
  /// adjacency list — no snapshot; Erase itself is the tombstone filter.
  /// Invokes fn(v) per erased pair and returns the number erased, which
  /// is asserted equal to SrcCount(u) before the sweep (burnback's
  /// accounting must stay exact). The list is cleared afterwards: u is
  /// dead in this set and generation never re-adds erased pairs.
  template <typename Fn>
  uint32_t EraseSrc(NodeId u, Fn&& fn) {
    WF_CHECK(!frozen_) << "EraseSrc on a frozen PairSet";
    std::vector<NodeId>* targets = fwd_.Find(u);
    if (targets == nullptr) return 0;
    const uint32_t live_before = SrcCount(u);
    uint32_t erased = 0;
    for (size_t i = targets->size(); i-- > 0;) {
      const NodeId v = (*targets)[i];
      if (Erase(u, v)) {
        ++erased;
        fn(v);
      }
    }
    WF_DCHECK(erased == live_before) << "EraseSrc accounting drifted";
    targets->clear();
    return erased;
  }

  /// Mirror of EraseSrc for pairs (*, v); invokes fn(u) per erased pair.
  template <typename Fn>
  uint32_t EraseDst(NodeId v, Fn&& fn) {
    WF_CHECK(!frozen_) << "EraseDst on a frozen PairSet";
    std::vector<NodeId>* sources = bwd_.Find(v);
    if (sources == nullptr) return 0;
    const uint32_t live_before = DstCount(v);
    uint32_t erased = 0;
    for (size_t i = sources->size(); i-- > 0;) {
      const NodeId u = (*sources)[i];
      if (Erase(u, v)) {
        ++erased;
        fn(u);
      }
    }
    WF_DCHECK(erased == live_before) << "EraseDst accounting drifted";
    sources->clear();
    return erased;
  }

  /// Converts the set into its immutable frozen form: forward/backward
  /// CSR arrays over the live pairs, hash tables released. Idempotent.
  /// After this, Add/Erase/MergeShard are program errors; every reader
  /// scans sorted spans. Iteration order changes from insertion order to
  /// ascending — callers that freeze have left phase 1, where order was
  /// load-bearing for determinism.
  void Freeze();

  /// True iff the set is in its frozen (CSR) form.
  bool IsFrozen() const { return frozen_; }

  /// Heap bytes of the frozen CSR arrays (0 in build form — only frozen
  /// sets are byte-accounted, for the runtime's AG cache quotas).
  uint64_t FrozenByteSize() const {
    return frozen_ ? fwd_csr_.ByteSize() + bwd_csr_.ByteSize() : 0;
  }

  /// Number of live pairs.
  uint64_t Size() const {
    return frozen_ ? fwd_csr_.NumEntries() : live_.Size();
  }

  /// Live pairs with source u / target v.
  uint32_t SrcCount(NodeId u) const;
  uint32_t DstCount(NodeId v) const;

  /// Distinct live sources / targets.
  uint64_t DistinctSrcCount() const {
    return frozen_ ? fwd_csr_.Nodes().size() : distinct_src_;
  }
  uint64_t DistinctDstCount() const {
    return frozen_ ? bwd_csr_.Nodes().size() : distinct_dst_;
  }

  /// Raw frozen spans (program error before Freeze): the sorted
  /// duplicate-free inputs the span kernels (util/span_kernels.h)
  /// operate on. FwdNeighbors(u) = all v with (u, v) live;
  /// BwdNeighbors(v) = all u. Spans stay valid as long as the set —
  /// frozen sets are immutable.
  std::span<const NodeId> FwdNeighbors(NodeId u) const {
    WF_DCHECK(frozen_) << "FwdNeighbors on an unfrozen PairSet";
    return fwd_csr_.Neighbors(u);
  }
  std::span<const NodeId> BwdNeighbors(NodeId v) const {
    WF_DCHECK(frozen_) << "BwdNeighbors on an unfrozen PairSet";
    return bwd_csr_.Neighbors(v);
  }

  /// The frozen CSR forms themselves, for batch entry points
  /// (Csr::ContainsMany, positional scans). Program error before Freeze.
  const Csr& FwdCsr() const {
    WF_DCHECK(frozen_) << "FwdCsr on an unfrozen PairSet";
    return fwd_csr_;
  }
  const Csr& BwdCsr() const {
    WF_DCHECK(frozen_) << "BwdCsr on an unfrozen PairSet";
    return bwd_csr_;
  }

  /// Invokes fn(v) for every live pair (u, v). Frozen: one sorted span
  /// scan. Build form: the underlying list may contain tombstones; fn is
  /// only called for live pairs.
  template <typename Fn>
  void ForEachFwd(NodeId u, Fn&& fn) const {
    if (frozen_) {
      for (NodeId v : fwd_csr_.Neighbors(u)) fn(v);
      return;
    }
    const std::vector<NodeId>* targets = fwd_.Find(u);
    if (targets == nullptr) return;
    for (NodeId v : *targets) {
      if (Contains(u, v)) fn(v);
    }
  }

  /// Invokes fn(u) for every live pair (u, v).
  template <typename Fn>
  void ForEachBwd(NodeId v, Fn&& fn) const {
    if (frozen_) {
      for (NodeId u : bwd_csr_.Neighbors(v)) fn(u);
      return;
    }
    const std::vector<NodeId>* sources = bwd_.Find(v);
    if (sources == nullptr) return;
    for (NodeId u : *sources) {
      if (Contains(u, v)) fn(u);
    }
  }

  /// Invokes fn(u, v) for every live pair (source-major ascending when
  /// frozen; hash-slot order in build form).
  template <typename Fn>
  void ForEachPair(Fn&& fn) const {
    if (frozen_) {
      fwd_csr_.ForEach(fn);
      return;
    }
    live_.ForEach([&](uint64_t key) {
      auto [u, v] = UnpackPair(key);
      fn(u, v);
    });
  }

  /// Invokes fn(u) for every distinct live source.
  template <typename Fn>
  void ForEachSrc(Fn&& fn) const {
    if (frozen_) {
      for (NodeId u : fwd_csr_.Nodes()) fn(u);
      return;
    }
    src_count_.ForEach([&](NodeId u, const uint32_t& count) {
      if (count > 0) fn(u);
    });
  }
  /// Invokes fn(v) for every distinct live target.
  template <typename Fn>
  void ForEachDst(Fn&& fn) const {
    if (frozen_) {
      for (NodeId v : bwd_csr_.Nodes()) fn(v);
      return;
    }
    dst_count_.ForEach([&](NodeId v, const uint32_t& count) {
      if (count > 0) fn(v);
    });
  }

 private:
  PairKeySet live_;
  NodeMap<std::vector<NodeId>> fwd_;
  NodeMap<std::vector<NodeId>> bwd_;
  NodeMap<uint32_t> src_count_;
  NodeMap<uint32_t> dst_count_;
  uint64_t distinct_src_ = 0;
  uint64_t distinct_dst_ = 0;
  /// Frozen form (populated by Freeze; empty before).
  Csr fwd_csr_;
  Csr bwd_csr_;
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

  /// Marks an edge set materialized (it now constrains its endpoints).
  void MarkMaterialized(uint32_t index);
  bool IsMaterialized(uint32_t index) const { return materialized_[index]; }

  /// Freezes every edge set into its immutable CSR form (see
  /// PairSet::Freeze). Call once phase 1 — including the final burnback —
  /// is over; phase 2 then reads sorted spans instead of hash tables.
  /// Sets freeze independently, one set per morsel on `pool` (borrowed;
  /// null runs on InlinePool); `weight` is the task-group scheduler share
  /// on a shared pool. Idempotent.
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

  /// True iff node c is alive at variable v (see class comment). Only
  /// meaningful for touched variables.
  bool IsAlive(VarId v, NodeId c) const;

  /// Number of live pairs incident to (v, c) in edge set `index`.
  uint32_t CountAt(uint32_t index, VarId v, NodeId c) const;

  /// Invokes fn(c) for every node alive at v. Iterates the materialized
  /// incident set with the fewest distinct nodes on v's side and filters
  /// by IsAlive. Requires IsTouched(v).
  template <typename Fn>
  void ForEachCandidate(VarId v, Fn&& fn) const {
    const uint32_t pilot = PilotSet(v);
    const PairSet& set = sets_[pilot];
    auto visit = [&](NodeId c) {
      if (IsAlive(v, c)) fn(c);
    };
    if (src_var_[pilot] == v) {
      set.ForEachSrc(visit);
    } else {
      set.ForEachDst(visit);
    }
  }

  /// Number of nodes alive at v (linear scan; diagnostics and tests).
  uint64_t CandidateCount(VarId v) const;

  /// Total live pairs across the query edges (|AG| as the paper reports
  /// it; chords are bookkeeping, not part of the answer graph proper).
  uint64_t TotalQueryEdgePairs() const;

  /// Exact per-edge statistics for the embedding planner.
  std::vector<AgEdgeStats> Stats() const;

 private:
  /// The materialized incident set of v with fewest distinct nodes at v.
  uint32_t PilotSet(VarId v) const;

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
