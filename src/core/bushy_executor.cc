#include "core/bushy_executor.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <unordered_map>

#include "exec/join_common.h"
#include "util/interrupt.h"
#include "util/logging.h"
#include "util/span_kernels.h"

namespace wireframe {

namespace {

/// Probe rows per morsel of a hash join.
constexpr uint64_t kProbeMorsel = 1024;
/// Result rows per morsel for the final emit scan.
constexpr uint64_t kEmitMorsel = 256;
/// Shared join keys per morsel of a leaf merge.
constexpr uint64_t kMergeMorsel = 128;

/// A leaf⋈leaf join eligible for the sorted-merge fast path: both edges
/// share exactly one variable and neither is a self loop. The shared
/// variable keyed on each side's frozen CSR (forward if the edge leaves
/// the shared var, backward otherwise) turns the join into one kernel
/// intersection of the two sorted key arrays plus a span cross-product
/// per common key — no hash table, no materialized leaf relations.
struct LeafMerge {
  const Csr* left_csr;
  const Csr* right_csr;
  VarId shared, left_other, right_other;
};

bool PlanLeafMerge(const QueryGraph& query, const AnswerGraph& ag,
                   const BushyPlan::Node& lnode,
                   const BushyPlan::Node& rnode, LeafMerge* out) {
  if (!lnode.IsLeaf() || !rnode.IsLeaf()) return false;
  const QueryEdge& lq = query.Edge(lnode.edge);
  const QueryEdge& rq = query.Edge(rnode.edge);
  if (lq.src == lq.dst || rq.src == rq.dst) return false;
  int shared_count = 0;
  VarId shared = 0;
  for (const VarId lv : {lq.src, lq.dst}) {
    if (lv == rq.src || lv == rq.dst) {
      ++shared_count;
      shared = lv;
    }
  }
  if (shared_count != 1) return false;
  const PairSet& lset = ag.Set(lnode.edge);
  const PairSet& rset = ag.Set(rnode.edge);
  out->left_csr = lq.src == shared ? &lset.FwdCsr() : &lset.BwdCsr();
  out->right_csr = rq.src == shared ? &rset.FwdCsr() : &rset.BwdCsr();
  out->shared = shared;
  out->left_other = lq.src == shared ? lq.dst : lq.src;
  out->right_other = rq.src == shared ? rq.dst : rq.src;
  return true;
}

}  // namespace

Result<DefactorizerStats> BushyExecutor::Emit(
    const BushyPlan& plan, Sink* sink,
    const BushyExecutorOptions& options, const EngineOptions& run) const {
  WF_CHECK(ag_->IsFrozen()) << "phase 2 requires a frozen AnswerGraph";
  DefactorizerStats stats;
  uint64_t total_cells = 0;
  ThreadPool* pool = run.Pool();

  // Join-barrier interrupt check; the morsel loops get the same checks
  // per morsel from ParallelFor. (`probe` would shadow the join's probe
  // side, hence the name.)
  InterruptProbe interrupt(run.deadline, run.cancel);

  // Runs body(worker, begin, end) over [0, n) in `morsel`-sized morsels
  // on the pool, mapping an interrupt to the status of stage `what`.
  auto morsels = [&](uint64_t n, uint64_t morsel, std::atomic<bool>* stop,
                     const char* what, auto&& body) -> Status {
    const Status st = pool->ParallelFor(n, run.Morsels(morsel, stop), body);
    if (st.IsCancelled()) return Status::Cancelled(what);
    if (st.IsTimedOut()) return Status::TimedOut(what);
    return st;
  };

  auto materialize = [&](auto&& self,
                         int index) -> Result<JoinRelation> {
    const BushyPlan::Node& node = plan.nodes[index];
    JoinRelation out;
    if (node.IsLeaf()) {
      const QueryEdge& qe = query_->Edge(node.edge);
      out.schema = {qe.src, qe.dst};
      const PairSet& set = ag_->Set(node.edge);
      out.cells.reserve(set.Size() * 2);
      set.ForEachPair([&](NodeId u, NodeId v) {
        out.cells.push_back(u);
        out.cells.push_back(v);
      });
      stats.extensions += set.Size();
      total_cells += out.cells.size();
    } else if (LeafMerge merge; PlanLeafMerge(*query_, *ag_,
                                              plan.nodes[node.left],
                                              plan.nodes[node.right],
                                              &merge)) {
      WF_RETURN_NOT_OK(interrupt.CheckNow("bushy join"));
      const Csr& lcsr = *merge.left_csr;
      const Csr& rcsr = *merge.right_csr;
      out.schema = {merge.shared, merge.left_other, merge.right_other};

      // The join keys are the intersection of the two sorted key arrays —
      // one span-kernel call over the whole join.
      std::vector<NodeId> common(
          std::min(lcsr.Nodes().size(), rcsr.Nodes().size()) + kIntersectPad);
      const size_t num_common =
          IntersectSorted(lcsr.Nodes(), rcsr.Nodes(), common.data());
      common.resize(num_common);

      // Output size is exact before any row materializes, so the memory
      // budget is decided up front — no need for the hash path's
      // in-flight guard.
      uint64_t rows = 0;
      for (const NodeId key : common) {
        rows += static_cast<uint64_t>(lcsr.Neighbors(key).size()) *
                rcsr.Neighbors(key).size();
      }
      if (rows * 3 + total_cells > options.max_cells) {
        return Status::OutOfRange(
            "bushy intermediate exceeded the memory budget");
      }
      // Mirror the hash path's accounting: both leaf scans plus one
      // extension per joined row (invariant across paths, dispatch, and
      // thread count).
      stats.extensions += ag_->Set(plan.nodes[node.left].edge).Size() +
                          ag_->Set(plan.nodes[node.right].edge).Size() + rows;

      // Cross-product span gather per common key, prefetch-pipelined: the
      // next keys' spans are pulled in while the current key's product is
      // written.
      auto gather = [&](uint64_t begin, uint64_t end,
                        std::vector<NodeId>& cells) {
        for (uint64_t c = begin; c < end; ++c) {
          if (c + 2 < end) {
            const NodeId ahead = common[c + 2];
            PrefetchRead(lcsr.Neighbors(ahead).data());
            PrefetchRead(rcsr.Neighbors(ahead).data());
          }
          const NodeId key = common[c];
          for (const NodeId lv : lcsr.Neighbors(key)) {
            for (const NodeId rv : rcsr.Neighbors(key)) {
              cells.push_back(key);
              cells.push_back(lv);
              cells.push_back(rv);
            }
          }
        }
      };
      std::vector<std::vector<NodeId>> chunks(
          (num_common + kMergeMorsel - 1) / kMergeMorsel);
      WF_RETURN_NOT_OK(morsels(
          num_common, kMergeMorsel, nullptr, "bushy join",
          [&](uint32_t, uint64_t begin, uint64_t end) {
            gather(begin, end, chunks[begin / kMergeMorsel]);
          }));
      out.cells.reserve(rows * 3);
      for (const std::vector<NodeId>& chunk : chunks) {
        out.cells.insert(out.cells.end(), chunk.begin(), chunk.end());
      }
      total_cells += out.cells.size();
    } else {
      WF_ASSIGN_OR_RETURN(JoinRelation left, self(self, node.left));
      WF_ASSIGN_OR_RETURN(JoinRelation right, self(self, node.right));
      WF_RETURN_NOT_OK(interrupt.CheckNow("bushy join"));

      // Join columns: variables present on both sides.
      std::vector<int> lcols, rcols;
      for (size_t i = 0; i < left.schema.size(); ++i) {
        const int rc = right.ColumnOf(left.schema[i]);
        if (rc >= 0) {
          lcols.push_back(static_cast<int>(i));
          rcols.push_back(rc);
        }
      }
      WF_CHECK(!lcols.empty()) << "bushy plan produced a cross product";

      // Build on the smaller side.
      const bool build_left = left.NumRows() <= right.NumRows();
      const JoinRelation& build = build_left ? left : right;
      const JoinRelation& probe = build_left ? right : left;
      const std::vector<int>& bcols = build_left ? lcols : rcols;
      const std::vector<int>& pcols = build_left ? rcols : lcols;

      std::unordered_multimap<uint64_t, size_t> table;
      table.reserve(build.NumRows());
      for (size_t r = 0; r < build.NumRows(); ++r) {
        table.emplace(JoinKeyHash(build.Row(r), bcols), r);
      }

      // Output schema: probe side columns + build-only columns.
      out.schema = probe.schema;
      std::vector<int> extra_cols;  // build columns not in the join key
      for (size_t i = 0; i < build.schema.size(); ++i) {
        if (probe.ColumnOf(build.schema[i]) < 0) {
          out.schema.push_back(build.schema[i]);
          extra_cols.push_back(static_cast<int>(i));
        }
      }

      // One probe row's matches, appended to `cells`.
      auto probe_one = [&](size_t r, std::vector<NodeId>& cells,
                           uint64_t& matches) {
        const NodeId* prow = probe.Row(r);
        auto [begin, end] = table.equal_range(JoinKeyHash(prow, pcols));
        for (auto it = begin; it != end; ++it) {
          const NodeId* brow = build.Row(it->second);
          if (!JoinKeysEqual(prow, pcols, brow, bcols)) continue;
          for (size_t c = 0; c < probe.Width(); ++c) {
            cells.push_back(prow[c]);
          }
          for (int c : extra_cols) cells.push_back(brow[c]);
          ++matches;
        }
      };

      // Morsel-parallel probe: each morsel fills a private chunk; chunks
      // concatenate in morsel order, so the joined relation is the same
      // for every pool size. The hash table and both input relations are
      // only read.
      const uint64_t num_probe = probe.NumRows();
      const uint64_t num_morsels =
          (num_probe + kProbeMorsel - 1) / kProbeMorsel;
      std::vector<std::vector<NodeId>> chunks(num_morsels);
      std::vector<uint64_t> chunk_matches(num_morsels, 0);
      // Memory guard while workers run; the deterministic budget decision
      // is re-made against the exact total after the merge.
      std::atomic<uint64_t> cells_in_flight{total_cells};
      std::atomic<bool> over_budget{false};
      WF_RETURN_NOT_OK(morsels(
          num_probe, kProbeMorsel, &over_budget, "bushy join",
          [&](uint32_t, uint64_t begin, uint64_t end) {
            const uint64_t m = begin / kProbeMorsel;
            for (uint64_t r = begin; r < end; ++r) {
              probe_one(r, chunks[m], chunk_matches[m]);
            }
            if (cells_in_flight.fetch_add(chunks[m].size(),
                                          std::memory_order_relaxed) +
                    chunks[m].size() >
                options.max_cells) {
              over_budget.store(true, std::memory_order_relaxed);
            }
          }));
      uint64_t merged = 0;
      for (const std::vector<NodeId>& chunk : chunks) merged += chunk.size();
      if (over_budget.load(std::memory_order_relaxed) ||
          merged + total_cells > options.max_cells) {
        return Status::OutOfRange(
            "bushy intermediate exceeded the memory budget");
      }
      out.cells.reserve(merged);
      for (uint64_t m = 0; m < num_morsels; ++m) {
        out.cells.insert(out.cells.end(), chunks[m].begin(),
                         chunks[m].end());
        stats.extensions += chunk_matches[m];
      }
      total_cells += out.cells.size();
    }
    return out;
  };

  if (plan.root < 0) return Status::InvalidArgument("empty bushy plan");
  WF_ASSIGN_OR_RETURN(JoinRelation result, materialize(materialize, plan.root));

  // Emit rows as full bindings.
  std::vector<int> var_to_col(query_->NumVars(), -1);
  for (size_t c = 0; c < result.schema.size(); ++c) {
    var_to_col[result.schema[c]] = static_cast<int>(c);
  }
  auto fill_binding = [&](const NodeId* row, std::vector<NodeId>& binding) {
    for (VarId v = 0; v < query_->NumVars(); ++v) {
      binding[v] = var_to_col[v] >= 0 ? row[var_to_col[v]] : kInvalidNode;
    }
  };

  std::mutex sink_mu;
  std::atomic<bool> stop{false};
  const uint32_t workers = pool->num_threads();
  std::vector<SinkShard> shards;
  std::vector<std::vector<NodeId>> bindings(
      workers, std::vector<NodeId>(query_->NumVars(), kInvalidNode));
  shards.reserve(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    shards.emplace_back(sink, &sink_mu, &stop);
  }
  WF_RETURN_NOT_OK(morsels(
      result.NumRows(), kEmitMorsel, &stop, "bushy emit",
      [&](uint32_t worker, uint64_t begin, uint64_t end) {
        for (uint64_t r = begin; r < end; ++r) {
          fill_binding(result.Row(r), bindings[worker]);
          if (!shards[worker].Emit(bindings[worker])) break;
        }
      }));
  for (SinkShard& shard : shards) {
    shard.Flush();
    stats.emitted += shard.count();
  }
  return stats;
}

}  // namespace wireframe
