#include "core/answer_graph.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace wireframe {

std::vector<std::pair<NodeId, NodeId>> ConcatShards(
    std::span<const PairSetShard> shards) {
  size_t total = 0;
  for (const PairSetShard& shard : shards) total += shard.Size();
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(total);
  for (const PairSetShard& shard : shards) {
    pairs.insert(pairs.end(), shard.pairs().begin(), shard.pairs().end());
  }
  return pairs;
}

PairSet::PairSet(std::vector<std::pair<NodeId, NodeId>> pairs) {
  // Orient the list as (key, neighbor), sorted: by (src, dst) as given,
  // or by (dst, src) once each pair is flipped.
  const bool src_major = std::is_sorted(pairs.begin(), pairs.end());
  const bool dst_major =
      !src_major &&
      std::is_sorted(pairs.begin(), pairs.end(), [](auto a, auto b) {
        return std::tie(a.second, a.first) < std::tie(b.second, b.first);
      });
  if (dst_major) {
    for (auto& [u, v] : pairs) std::swap(u, v);
  } else if (!src_major) {
    std::sort(pairs.begin(), pairs.end());
  }
  WF_DCHECK(std::adjacent_find(pairs.begin(), pairs.end()) == pairs.end())
      << "PairSet input has duplicates";
  const size_t n = pairs.size();
  auto get = [&pairs](size_t i) { return pairs[i]; };
  Csr sorted = Csr::BuildFromSorted(n, get);
  std::vector<uint32_t> positions;
  Csr other = Csr::BuildTransposed(n, get, &positions);
  if (dst_major) {
    bwd_to_fwd_.resize(n);
    for (size_t j = 0; j < n; ++j) {
      bwd_to_fwd_[positions[j]] = static_cast<uint32_t>(j);
    }
  } else {
    bwd_to_fwd_ = std::move(positions);
  }
  fwd_ = std::move(dst_major ? other : sorted);
  bwd_ = std::move(dst_major ? sorted : other);

  // Counters at span starts. dst_at_ first holds each forward entry's own
  // source span start; the backward sweep, which reaches every forward
  // entry exactly once, moves it to src_at_ and writes the target's.
  src_live_.assign(n, 0);
  dst_live_.assign(n, 0);
  dst_at_.resize(n);
  src_at_.resize(n);
  for (size_t i = 0; i < fwd_.Nodes().size(); ++i) {
    const Csr::Range r = fwd_.RangeAt(i);
    src_live_[r.begin] = r.end - r.begin;
    std::fill(dst_at_.begin() + r.begin, dst_at_.begin() + r.end, r.begin);
  }
  for (size_t i = 0; i < bwd_.Nodes().size(); ++i) {
    const Csr::Range r = bwd_.RangeAt(i);
    dst_live_[r.begin] = r.end - r.begin;
    for (uint32_t j = r.begin; j < r.end; ++j) {
      const uint32_t k = bwd_to_fwd_[j];
      src_at_[j] = dst_at_[k];
      dst_at_[k] = r.begin;
    }
  }
  live_.assign((n + 63) / 64, ~uint64_t{0});
  size_ = n;
  distinct_src_ = fwd_.Nodes().size();
  distinct_dst_ = bwd_.Nodes().size();
}

bool PairSet::Erase(NodeId u, NodeId v) {
  WF_CHECK(!frozen_) << "Erase on a frozen PairSet";
  const Csr::Range r = fwd_.RangeOf(u);
  const std::span<const NodeId> span = fwd_.Slice(r);
  const size_t i = SpanLowerBound(span, v);
  if (i == span.size() || span[i] != v) return false;
  const uint32_t k = r.begin + static_cast<uint32_t>(i);
  if (!IsLive(k)) return false;
  Drop(k, r.begin, dst_at_[k]);
  return true;
}

void PairSet::Freeze() {
  if (frozen_) return;
  fwd_ = fwd_.Filtered([&](uint32_t k) { return IsLive(k); });
  bwd_ = bwd_.Filtered([&](uint32_t j) { return IsLiveBwd(j); });
  live_ = std::vector<uint64_t>();
  bwd_to_fwd_ = std::vector<uint32_t>();
  src_live_ = std::vector<uint32_t>();
  dst_live_ = std::vector<uint32_t>();
  dst_at_ = std::vector<uint32_t>();
  src_at_ = std::vector<uint32_t>();
  WF_DCHECK(size_ == fwd_.NumEntries() &&
            distinct_src_ == fwd_.Nodes().size() &&
            distinct_dst_ == bwd_.Nodes().size())
      << "PairSet counters drifted from its entries";
  frozen_ = true;
}

AnswerGraph::AnswerGraph(const QueryGraph& query)
    : num_query_edges_(query.NumEdges()) {
  incident_.resize(query.NumVars());
  sets_.resize(query.NumEdges());
  materialized_.assign(query.NumEdges(), false);
  src_var_.resize(query.NumEdges());
  dst_var_.resize(query.NumEdges());
  for (uint32_t e = 0; e < query.NumEdges(); ++e) {
    const QueryEdge& qe = query.Edge(e);
    src_var_[e] = qe.src;
    dst_var_[e] = qe.dst;
    incident_[qe.src].push_back(e);
    incident_[qe.dst].push_back(e);
  }
}

uint32_t AnswerGraph::AddChordSlot(VarId u, VarId v) {
  WF_CHECK(u < incident_.size() && v < incident_.size());
  WF_CHECK(!frozen_) << "AddChordSlot on a frozen AnswerGraph";
  const uint32_t index = static_cast<uint32_t>(sets_.size());
  sets_.emplace_back();
  materialized_.push_back(false);
  src_var_.push_back(u);
  dst_var_.push_back(v);
  incident_[u].push_back(index);
  incident_[v].push_back(index);
  return index;
}

void AnswerGraph::Materialize(uint32_t index,
                              std::vector<std::pair<NodeId, NodeId>> pairs) {
  WF_CHECK(index < sets_.size());
  WF_CHECK(!frozen_) << "Materialize on a frozen AnswerGraph";
  WF_CHECK(!materialized_[index])
      << "edge set " << index << " materialized twice";
  sets_[index] = PairSet(std::move(pairs));
  materialized_[index] = true;
}

void AnswerGraph::Freeze(ThreadPool* pool, uint32_t weight) {
  if (frozen_) return;
  frozen_ = true;
  if (pool == nullptr) pool = InlinePool();
  ParallelForOptions pf;
  pf.morsel_size = 1;
  pf.weight = weight;
  const Status st = pool->ParallelFor(
      sets_.size(), pf, [&](uint32_t, uint64_t begin, uint64_t end) {
        for (uint64_t s = begin; s < end; ++s) sets_[s].Freeze();
      });
  WF_CHECK(st.ok()) << "freeze has no deadline";
}

uint64_t AnswerGraph::FrozenByteSize() const {
  uint64_t bytes = sets_.size() * sizeof(PairSet) +
                   (src_var_.size() + dst_var_.size()) * sizeof(VarId) +
                   materialized_.size() / 8;
  for (const PairSet& set : sets_) bytes += set.FrozenByteSize();
  for (const std::vector<uint32_t>& inc : incident_) {
    bytes += inc.size() * sizeof(uint32_t);
  }
  return bytes;
}

bool AnswerGraph::IsTouched(VarId v) const {
  for (uint32_t e : incident_[v]) {
    if (materialized_[e]) return true;
  }
  return false;
}

uint32_t AnswerGraph::CountAt(uint32_t index, VarId v, NodeId c) const {
  WF_DCHECK(src_var_[index] == v || dst_var_[index] == v);
  if (src_var_[index] == v) return sets_[index].SrcCount(c);
  return sets_[index].DstCount(c);
}

bool AnswerGraph::IsAlive(VarId v, NodeId c, uint32_t except) const {
  return PilotSet(v, except) != kNoSet && LiveBeyond(v, c, except, kNoSet);
}

bool AnswerGraph::LiveBeyond(VarId v, NodeId c, uint32_t except,
                             uint32_t pilot) const {
  for (uint32_t e : incident_[v]) {
    if (e == except || e == pilot || !materialized_[e]) continue;
    if (CountAt(e, v, c) == 0) return false;
  }
  return true;
}

uint32_t AnswerGraph::PilotSet(VarId v, uint32_t except) const {
  uint32_t best = kNoSet;
  uint64_t best_count = UINT64_MAX;
  for (uint32_t e : incident_[v]) {
    if (e == except || !materialized_[e]) continue;
    const uint64_t count = src_var_[e] == v ? sets_[e].DistinctSrcCount()
                                            : sets_[e].DistinctDstCount();
    if (count < best_count) {
      best_count = count;
      best = e;
    }
  }
  return best;
}

uint64_t AnswerGraph::CandidateCount(VarId v) const {
  uint64_t n = 0;
  const bool touched = ForEachCandidate(v, [&](NodeId) { ++n; });
  WF_CHECK(touched) << "CandidateCount on an untouched variable";
  return n;
}

uint64_t AnswerGraph::TotalQueryEdgePairs() const {
  uint64_t total = 0;
  for (uint32_t e = 0; e < num_query_edges_; ++e) total += sets_[e].Size();
  return total;
}

std::vector<AgEdgeStats> AnswerGraph::Stats() const {
  std::vector<AgEdgeStats> stats(num_query_edges_);
  for (uint32_t e = 0; e < num_query_edges_; ++e) {
    stats[e].pairs = sets_[e].Size();
    stats[e].distinct_src = sets_[e].DistinctSrcCount();
    stats[e].distinct_dst = sets_[e].DistinctDstCount();
  }
  return stats;
}

}  // namespace wireframe
