#include "core/answer_graph.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace wireframe {

bool PairSet::Add(NodeId u, NodeId v) {
  // Hard check in every build type: frozen sets are shared read-only
  // across queries (runtime AG cache), so a mutation that only tripped a
  // debug assert would be silent memory corruption in Release.
  WF_CHECK(!frozen_) << "Add on a frozen PairSet";
  if (!live_.Insert(PackPair(u, v))) return false;
  fwd_[u].push_back(v);
  bwd_[v].push_back(u);
  if (++src_count_[u] == 1) ++distinct_src_;
  if (++dst_count_[v] == 1) ++distinct_dst_;
  return true;
}

uint64_t PairSet::MergeShard(const PairSetShard& shard) {
  uint64_t inserted = 0;
  for (const auto& [u, v] : shard.pairs()) {
    if (Add(u, v)) ++inserted;
  }
  return inserted;
}

bool PairSet::Erase(NodeId u, NodeId v) {
  WF_CHECK(!frozen_) << "Erase on a frozen PairSet";
  if (!live_.Erase(PackPair(u, v))) return false;
  uint32_t* su = src_count_.Find(u);
  WF_DCHECK(su != nullptr && *su > 0);
  if (--*su == 0) --distinct_src_;
  uint32_t* dv = dst_count_.Find(v);
  WF_DCHECK(dv != nullptr && *dv > 0);
  if (--*dv == 0) --distinct_dst_;
  return true;
}

void PairSet::Freeze() {
  if (frozen_) return;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(live_.Size());
  live_.ForEach([&](uint64_t key) {
    pairs.push_back(UnpackPair(key));
  });
  // Release the build-form tables before building the CSRs: only `live_`
  // was read, and dropping the adjacency/count tables here (instead of
  // after) roughly halves the transient peak of freezing a large set —
  // AnswerGraph::Freeze runs several sets concurrently on the pool.
  live_ = PairKeySet();
  fwd_ = NodeMap<std::vector<NodeId>>();
  bwd_ = NodeMap<std::vector<NodeId>>();
  src_count_ = NodeMap<uint32_t>();
  dst_count_ = NodeMap<uint32_t>();
  distinct_src_ = 0;
  distinct_dst_ = 0;
  fwd_csr_ = Csr::Build(std::move(pairs));
  // Rebuild the reversed list from the forward CSR so `pairs` is gone
  // before the second copy exists.
  std::vector<std::pair<NodeId, NodeId>> reversed;
  reversed.reserve(fwd_csr_.NumEntries());
  fwd_csr_.ForEach([&](NodeId u, NodeId v) { reversed.emplace_back(v, u); });
  bwd_csr_ = Csr::Build(std::move(reversed));
  frozen_ = true;
}

uint32_t PairSet::SrcCount(NodeId u) const {
  if (frozen_) return static_cast<uint32_t>(fwd_csr_.Neighbors(u).size());
  const uint32_t* count = src_count_.Find(u);
  return count == nullptr ? 0 : *count;
}

uint32_t PairSet::DstCount(NodeId v) const {
  if (frozen_) return static_cast<uint32_t>(bwd_csr_.Neighbors(v).size());
  const uint32_t* count = dst_count_.Find(v);
  return count == nullptr ? 0 : *count;
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

void AnswerGraph::MarkMaterialized(uint32_t index) {
  WF_CHECK(index < sets_.size());
  materialized_[index] = true;
}

void AnswerGraph::Freeze(ThreadPool* pool, uint32_t weight) {
  if (frozen_) return;
  frozen_ = true;
  // Freeze reads the live-pair index directly and drops the (possibly
  // tombstoned) adjacency lists wholesale.
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

bool AnswerGraph::IsAlive(VarId v, NodeId c) const {
  bool touched = false;
  for (uint32_t e : incident_[v]) {
    if (!materialized_[e]) continue;
    touched = true;
    if (CountAt(e, v, c) == 0) return false;
  }
  return touched;
}

uint32_t AnswerGraph::PilotSet(VarId v) const {
  uint32_t best = UINT32_MAX;
  uint64_t best_count = UINT64_MAX;
  for (uint32_t e : incident_[v]) {
    if (!materialized_[e]) continue;
    const uint64_t count = src_var_[e] == v ? sets_[e].DistinctSrcCount()
                                            : sets_[e].DistinctDstCount();
    if (count < best_count) {
      best_count = count;
      best = e;
    }
  }
  WF_CHECK(best != UINT32_MAX) << "ForEachCandidate on untouched variable";
  return best;
}

uint64_t AnswerGraph::CandidateCount(VarId v) const {
  uint64_t n = 0;
  ForEachCandidate(v, [&](NodeId) { ++n; });
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
