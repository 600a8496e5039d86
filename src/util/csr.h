#ifndef WIREFRAME_UTIL_CSR_H_
#define WIREFRAME_UTIL_CSR_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/common.h"
#include "util/logging.h"
#include "util/span_kernels.h"

namespace wireframe {

/// One direction of a pair set: sorted distinct keys, prefix offsets, and
/// sorted neighbor spans — the same shape as TripleStore::PredIndex,
/// factored out so the AnswerGraph's edge sets (core/answer_graph.h) and
/// the triple store share it.
///
/// Key lookup is O(1) for every key set and is never a binary search.
/// Node ids are dense dictionary ids, so whenever max_key is within a
/// small factor of the distinct-key count, the build materializes a
/// direct-indexed offset table (one uint32 per id in [0, max_key]) and
/// Neighbors() is a single load. A sparse key set (a few keys over a huge
/// id space) gets a hashed key index instead: an open-addressing table of
/// 4-byte slots, each a key's position in Nodes() plus one, at a load
/// factor of at most 1/2 (capacity = bit_ceil(2 * distinct keys)), probed
/// linearly from a multiplicative hash of the key. It costs 4 B x
/// capacity: 8-16 B per sparse key. The choice and both tables depend
/// only on the content, never on thread count or insertion order.
///
/// Immutable after Build: every accessor is const and allocation-free, so
/// any number of workers may scan spans concurrently without
/// synchronization.
class Csr {
 public:
  Csr() = default;

  /// Builds from an unordered pair list (key, neighbor). `pairs` is taken
  /// by value and sorted in place; duplicates are kept (callers that need
  /// set semantics deduplicate first).
  static Csr Build(std::vector<std::pair<NodeId, NodeId>> pairs) {
    std::sort(pairs.begin(), pairs.end());
    return BuildFromSorted(
        pairs.size(), [&pairs](size_t i) { return pairs[i]; });
  }

  /// Builds from a sequence already sorted by (key, neighbor) — no copy,
  /// no re-sort. `get(i)` returns the i-th pair; sortedness is asserted
  /// in debug builds. This is the path for sources that maintain sorted
  /// order themselves (TripleStoreBuilder's (p,s,o)-sorted slices).
  template <typename Get>
  static Csr BuildFromSorted(size_t n, Get&& get) {
    WF_CHECK(n <= UINT32_MAX)
        << "Csr offsets are uint32; entry count overflows";
    Csr csr;
    csr.neighbors_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const std::pair<NodeId, NodeId> entry = get(i);
      WF_DCHECK(i == 0 || get(i - 1) <= entry) << "input not sorted";
      const auto& [key, value] = entry;
      if (csr.nodes_.empty() || csr.nodes_.back() != key) {
        csr.nodes_.push_back(key);
        csr.offsets_.push_back(static_cast<uint32_t>(csr.neighbors_.size()));
      }
      csr.neighbors_.push_back(value);
    }
    csr.offsets_.push_back(static_cast<uint32_t>(csr.neighbors_.size()));
    csr.BuildKeyIndex();
    return csr;
  }

  /// Builds the other direction of a sequence sorted by (key, neighbor):
  /// the Csr keyed by neighbor, equal to Build over the flipped pairs, with
  /// no comparison sort. A stable LSD radix sort on the neighbor id keeps
  /// each neighbor's keys in input order, which is ascending. It makes one
  /// counting pass per digit of at most kRadixBits bits and none above the
  /// largest neighbor id, so ids below 2^11 cost one pass. `get(i)` returns
  /// the i-th pair; entry j of the result mirrors pair (*positions)[j].
  template <typename Get>
  static Csr BuildTransposed(size_t n, Get&& get,
                             std::vector<uint32_t>* positions) {
    WF_CHECK(n <= UINT32_MAX)
        << "Csr offsets are uint32; entry count overflows";
    // (neighbor, position) packed high/low: the sort moves one word.
    std::vector<uint64_t> order(n);
    NodeId max_neighbor = 0;
    for (size_t i = 0; i < n; ++i) {
      const NodeId neighbor = get(i).second;
      order[i] = (static_cast<uint64_t>(neighbor) << 32) | i;
      max_neighbor = std::max(max_neighbor, neighbor);
    }
    SortByHighHalf(order, max_neighbor);
    Csr csr = BuildFromSorted(n, [&](size_t j) {
      return std::make_pair(static_cast<NodeId>(order[j] >> 32),
                            get(static_cast<uint32_t>(order[j])).first);
    });
    positions->resize(n);
    for (size_t j = 0; j < n; ++j) {
      (*positions)[j] = static_cast<uint32_t>(order[j]);
    }
    return csr;
  }

  /// Order-preserving compaction: a Csr of exactly the entries k (indexes
  /// into Entries()) with keep(k) true. Keys left with no entry are
  /// dropped. The result is identical to Build over the kept pairs, in one
  /// linear pass with no sort.
  template <typename Keep>
  Csr Filtered(Keep&& keep) const {
    Csr csr;
    // Exact capacity, as Build reserves it: frozen sets stay resident in
    // the AG cache.
    size_t kept = 0;
    for (uint32_t k = 0; k < neighbors_.size(); ++k) kept += keep(k) ? 1 : 0;
    csr.neighbors_.reserve(kept);
    for (size_t i = 0; i < nodes_.size(); ++i) {
      const uint32_t before = static_cast<uint32_t>(csr.neighbors_.size());
      for (uint32_t k = offsets_[i]; k < offsets_[i + 1]; ++k) {
        if (keep(k)) csr.neighbors_.push_back(neighbors_[k]);
      }
      if (csr.neighbors_.size() > before) {
        csr.nodes_.push_back(nodes_[i]);
        csr.offsets_.push_back(before);
      }
    }
    csr.offsets_.push_back(static_cast<uint32_t>(csr.neighbors_.size()));
    csr.BuildKeyIndex();
    return csr;
  }

  /// Entry positions [begin, end) of one key's span in Entries().
  struct Range {
    uint32_t begin = 0;
    uint32_t end = 0;
    bool empty() const { return begin == end; }
  };

  /// Distinct keys, ascending.
  std::span<const NodeId> Nodes() const { return nodes_; }

  /// Total (key, neighbor) entries.
  uint64_t NumEntries() const { return neighbors_.size(); }

  /// Every neighbor, key-major: the i-th key's neighbors are
  /// Slice(RangeAt(i)). Entry positions index per-entry side tables
  /// (PairSet's liveness overlay).
  std::span<const NodeId> Entries() const { return neighbors_; }

  /// Entry range of `key`; empty if the key is absent.
  Range RangeOf(NodeId key) const {
    if (!dense_offsets_.empty()) {
      if (static_cast<size_t>(key) + 1 >= dense_offsets_.size()) return {};
      return {dense_offsets_[key], dense_offsets_[key + 1]};
    }
    if (key_slots_.empty()) return {};
    const size_t mask = key_slots_.size() - 1;
    for (size_t slot = SlotOf(key);; slot = (slot + 1) & mask) {
      const uint32_t entry = key_slots_[slot];
      if (entry == 0) return {};
      if (nodes_[entry - 1] == key) return RangeAt(entry - 1);
    }
  }

  /// Entry range of the i-th distinct key.
  Range RangeAt(size_t i) const {
    WF_DCHECK(i < nodes_.size());
    return {offsets_[i], offsets_[i + 1]};
  }

  /// The neighbors at entry positions `r`.
  std::span<const NodeId> Slice(Range r) const {
    return std::span<const NodeId>(neighbors_).subspan(r.begin,
                                                       r.end - r.begin);
  }

  /// Sorted neighbor span of `key`; empty if the key is absent.
  std::span<const NodeId> Neighbors(NodeId key) const {
    return Slice(RangeOf(key));
  }

  /// Neighbor span of the i-th distinct key (for dense scans that walk
  /// Nodes() positionally instead of probing by key).
  std::span<const NodeId> NeighborsAt(size_t i) const {
    return Slice(RangeAt(i));
  }

  /// True iff (key, value) is present: one key lookup plus a branch-free
  /// binary search over the short sorted span.
  bool Contains(NodeId key, NodeId value) const {
    return SpanContains(Neighbors(key), value);
  }

  /// Batched membership: hits[i] = 1 iff (keys[i], values[i]) is present.
  /// The batch entry point for probe-heavy loops (chord prefilters over a
  /// root list): the next rows' offsets and span starts are software-
  /// prefetched while the current probe resolves, and a run of equal keys
  /// with ascending values walks its span monotonically (one galloping
  /// step per probe) instead of binary-searching from scratch. Any
  /// key/value order is correct; sorted batches are fastest.
  void ContainsMany(std::span<const NodeId> keys,
                    std::span<const NodeId> values, uint8_t* hits) const {
    WF_DCHECK(keys.size() == values.size());
    const size_t n = keys.size();
    size_t i = 0;
    while (i < n) {
      if (!dense_offsets_.empty()) {
        // Two-stage prefetch pipeline: offset rows resolve well ahead,
        // span starts (which need the offset loaded) closer in.
        if (i + kProbeOffsetAhead < n &&
            static_cast<size_t>(keys[i + kProbeOffsetAhead]) + 1 <
                dense_offsets_.size()) {
          PrefetchRead(&dense_offsets_[keys[i + kProbeOffsetAhead]]);
        }
        if (i + kProbeSpanAhead < n &&
            static_cast<size_t>(keys[i + kProbeSpanAhead]) + 1 <
                dense_offsets_.size()) {
          PrefetchRead(&neighbors_[dense_offsets_[keys[i + kProbeSpanAhead]]]);
        }
      }
      const NodeId key = keys[i];
      size_t run = i + 1;
      while (run < n && keys[run] == key) ++run;
      const std::span<const NodeId> span = Neighbors(key);
      ContainsManySorted(span, values.subspan(i, run - i), hits + i);
      i = run;
    }
  }

  /// Intersects key's neighbor span with a sorted duplicate-free id list
  /// into `out` (capacity >= min(span, other) + kIntersectPad). Returns
  /// the match count — the frozen form of "extend binding, then filter by
  /// chord" collapsed into one kernel call.
  size_t IntersectNeighbors(NodeId key, std::span<const NodeId> other,
                            NodeId* out) const {
    return IntersectSorted(Neighbors(key), other, out);
  }

  /// Heap bytes of the built arrays (size-based, capacity-insensitive).
  /// Byte quotas — the runtime's answer-graph cache — account with this.
  uint64_t ByteSize() const {
    return (nodes_.size() + neighbors_.size()) * sizeof(NodeId) +
           (offsets_.size() + dense_offsets_.size() + key_slots_.size()) *
               sizeof(uint32_t);
  }

  /// Pulls the start of the i-th span toward the cache — the span-gather
  /// prefetch for dense positional scans: while span i is processed,
  /// issue PrefetchSpan(i + d) for a small lookahead d so the walk never
  /// stalls on the first line of the next span.
  void PrefetchSpan(size_t i) const {
    WF_DCHECK(i < nodes_.size());
    PrefetchRead(&neighbors_[offsets_[i]]);
  }

  /// Invokes fn(key, k) for every entry position k (neighbor
  /// Entries()[k]), key-major ascending, prefetching a few spans ahead
  /// (per-span fn work defeats the hardware prefetcher on short scattered
  /// spans).
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (i + kScanSpanAhead < nodes_.size()) {
        PrefetchSpan(i + kScanSpanAhead);
      }
      const NodeId key = nodes_[i];
      for (uint32_t k = offsets_[i]; k < offsets_[i + 1]; ++k) fn(key, k);
    }
  }

  /// Invokes fn(key, neighbor) for every entry, key-major ascending.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEachEntry([&](NodeId key, uint32_t k) { fn(key, neighbors_[k]); });
  }

 private:
  /// Direct-index eligibility: max_key + 1 must not exceed
  /// kDenseSlack * distinct_keys + kDenseFloor.
  static constexpr uint64_t kDenseSlack = 8;
  static constexpr uint64_t kDenseFloor = 1024;

  /// 2^64 / golden ratio, odd: the multiplicative (Fibonacci) hash of
  /// the sparse key index. Its top bits pick the slot, so keys in a
  /// power-of-two stride still spread.
  static constexpr uint64_t kFibonacciHash = 0x9E3779B97F4A7C15ull;

  /// Prefetch distances of the batched-probe and positional-scan loops
  /// (rows ahead for offset rows / span starts, spans ahead for ForEach).
  static constexpr size_t kProbeOffsetAhead = 8;
  static constexpr size_t kProbeSpanAhead = 2;
  static constexpr size_t kScanSpanAhead = 4;

  /// Widest digit of BuildTransposed's radix sort (2^11 counters).
  static constexpr int kRadixBits = 11;

  /// Stable LSD radix sort of `keys` by their high 32 bits, all of which
  /// are <= max_high: ceil(bit_width(max_high) / kRadixBits) passes over
  /// equal-width digits.
  static void SortByHighHalf(std::vector<uint64_t>& keys, NodeId max_high) {
    const int bits = std::bit_width(max_high);
    if (bits == 0) return;  // one high half: already in order
    const int passes = (bits + kRadixBits - 1) / kRadixBits;
    const int width = (bits + passes - 1) / passes;
    const uint64_t mask = (uint64_t{1} << width) - 1;
    std::vector<uint64_t> scratch(keys.size());
    std::vector<uint32_t> starts(size_t{1} << width);
    for (int pass = 0; pass < passes; ++pass) {
      const int shift = 32 + pass * width;
      std::fill(starts.begin(), starts.end(), 0);
      for (const uint64_t key : keys) ++starts[(key >> shift) & mask];
      uint32_t sum = 0;
      for (uint32_t& start : starts) {
        const uint32_t count = start;
        start = sum;
        sum += count;
      }
      for (const uint64_t key : keys) {
        scratch[starts[(key >> shift) & mask]++] = key;
      }
      keys.swap(scratch);
    }
  }

  /// Builds the key lookup: a direct index when the id space is compact
  /// enough that one uint32 per id costs at most ~kDenseSlack slots per
  /// distinct key, the hashed index otherwise. Depends only on nodes_ and
  /// offsets_, so equal content gives equal tables.
  void BuildKeyIndex() {
    if (nodes_.empty()) return;
    const uint64_t span = static_cast<uint64_t>(nodes_.back()) + 1;
    if (span > kDenseSlack * nodes_.size() + kDenseFloor) {
      BuildHashedIndex();
      return;
    }
    dense_offsets_.assign(span + 1, 0);
    for (size_t i = 0; i < nodes_.size(); ++i) {
      dense_offsets_[nodes_[i]] = offsets_[i];
      dense_offsets_[nodes_[i] + 1] = offsets_[i + 1];
    }
    // Fill the gaps: an absent key gets an empty span at the end of its
    // predecessor's.
    for (size_t k = 1; k < dense_offsets_.size(); ++k) {
      dense_offsets_[k] = std::max(dense_offsets_[k], dense_offsets_[k - 1]);
    }
  }

  /// Open addressing at load factor <= 1/2, so a miss (phase 1 makes
  /// many) ends at an empty slot after a short run. Keys go in ascending
  /// order, so the table is a function of nodes_ alone.
  void BuildHashedIndex() {
    const size_t capacity = std::bit_ceil(2 * nodes_.size());
    slot_shift_ = 64 - std::countr_zero(capacity);
    key_slots_.assign(capacity, 0);
    const size_t mask = capacity - 1;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      size_t slot = SlotOf(nodes_[i]);
      while (key_slots_[slot] != 0) slot = (slot + 1) & mask;
      key_slots_[slot] = static_cast<uint32_t>(i + 1);
    }
  }

  /// Home slot of `key` in key_slots_: the top bits of its Fibonacci hash.
  size_t SlotOf(NodeId key) const {
    return static_cast<size_t>((key * kFibonacciHash) >> slot_shift_);
  }

  std::vector<NodeId> nodes_;
  std::vector<uint32_t> offsets_;  // nodes_.size() + 1 once built
  std::vector<NodeId> neighbors_;
  /// Direct-indexed spans (dense key spaces only): key k's neighbors are
  /// neighbors_[dense_offsets_[k], dense_offsets_[k+1]). Empty when the
  /// key space is too sparse.
  std::vector<uint32_t> dense_offsets_;
  /// Hashed key index (sparse key spaces only): each slot holds a key's
  /// position in nodes_ plus one, 0 = empty; the capacity is a power of
  /// two. Empty when dense_offsets_ is built.
  std::vector<uint32_t> key_slots_;
  /// 64 - log2(key_slots_.size()): SlotOf keeps the hash's top bits.
  int slot_shift_ = 64;
};

}  // namespace wireframe

#endif  // WIREFRAME_UTIL_CSR_H_
