#include "exec/join_common.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "util/hash.h"
#include "util/interrupt.h"
#include "util/logging.h"

namespace wireframe {

uint64_t JoinKeyHash(const NodeId* row, const std::vector<int>& cols) {
  uint64_t h = 1469598103934665603ull;
  for (int c : cols) h = Mix64(h ^ row[c]);
  return h;
}

bool JoinKeysEqual(const NodeId* a, const std::vector<int>& acols,
                   const NodeId* b, const std::vector<int>& bcols) {
  for (size_t i = 0; i < acols.size(); ++i) {
    if (a[acols[i]] != b[bcols[i]]) return false;
  }
  return true;
}

namespace {

bool Touches(const QueryGraph& query, const std::vector<bool>& bound,
             uint32_t e) {
  const QueryEdge& qe = query.Edge(e);
  return bound[qe.src] || bound[qe.dst];
}

void Bind(const QueryGraph& query, std::vector<bool>& bound, uint32_t e) {
  bound[query.Edge(e).src] = true;
  bound[query.Edge(e).dst] = true;
}

}  // namespace

std::vector<uint32_t> OrderBySmallestLabel(const QueryGraph& query,
                                           const Catalog& catalog) {
  const uint32_t n = query.NumEdges();
  std::vector<uint32_t> order;
  std::vector<bool> used(n, false);
  std::vector<bool> bound(query.NumVars(), false);
  for (uint32_t step = 0; step < n; ++step) {
    uint32_t best = UINT32_MAX;
    uint64_t best_count = UINT64_MAX;
    for (uint32_t e = 0; e < n; ++e) {
      if (used[e]) continue;
      if (step > 0 && !Touches(query, bound, e)) continue;
      const uint64_t count = catalog.EdgeCount(query.Edge(e).label);
      if (count < best_count) {
        best_count = count;
        best = e;
      }
    }
    WF_CHECK(best != UINT32_MAX) << "query graph must be connected";
    used[best] = true;
    Bind(query, bound, best);
    order.push_back(best);
  }
  return order;
}

std::vector<uint32_t> OrderByEstimatedGrowth(const QueryGraph& query,
                                             const CardinalityEstimator& est) {
  const uint32_t n = query.NumEdges();
  std::vector<uint32_t> order;
  std::vector<bool> used(n, false);
  std::vector<VarEstimate> vars(query.NumVars());
  for (uint32_t step = 0; step < n; ++step) {
    uint32_t best = UINT32_MAX;
    double best_growth = std::numeric_limits<double>::infinity();
    ExtensionEstimate best_est;
    for (uint32_t e = 0; e < n; ++e) {
      if (used[e]) continue;
      const QueryEdge& qe = query.Edge(e);
      if (step > 0 && !vars[qe.src].bound && !vars[qe.dst].bound) continue;
      ExtensionEstimate ext =
          est.EstimateExtension(qe.label, vars[qe.src], vars[qe.dst]);
      if (ext.matched_edges < best_growth) {
        best_growth = ext.matched_edges;
        best = e;
        best_est = ext;
      }
    }
    WF_CHECK(best != UINT32_MAX) << "query graph must be connected";
    used[best] = true;
    const QueryEdge& qe = query.Edge(best);
    vars[qe.src] = {true, best_est.new_src_candidates, qe.label,
                    End::kSubject};
    vars[qe.dst] = {true, best_est.new_dst_candidates, qe.label,
                    End::kObject};
    order.push_back(best);
  }
  return order;
}

std::vector<uint32_t> OrderAsWrittenConnected(const QueryGraph& query) {
  const uint32_t n = query.NumEdges();
  std::vector<uint32_t> order;
  std::vector<bool> used(n, false);
  std::vector<bool> bound(query.NumVars(), false);
  for (uint32_t step = 0; step < n; ++step) {
    uint32_t pick = UINT32_MAX;
    for (uint32_t e = 0; e < n; ++e) {
      if (used[e]) continue;
      if (step > 0 && !Touches(query, bound, e)) continue;
      pick = e;
      break;
    }
    WF_CHECK(pick != UINT32_MAX) << "query graph must be connected";
    used[pick] = true;
    Bind(query, bound, pick);
    order.push_back(pick);
  }
  return order;
}

namespace {

struct PipelineContext {
  const TripleStore* store;
  const QueryGraph* query;
  const std::vector<uint32_t>* order;
  Sink* sink;
  InterruptProbe probe;
  std::vector<NodeId> binding;
  uint64_t walks = 0;
  uint64_t emitted = 0;
  bool stop = false;

  /// Amortized deadline + cancellation probe; also true once the sink
  /// declined more rows.
  bool DeadlineHit() {
    if (stop) return true;
    if (!probe.Hit()) return false;
    stop = true;
    return true;
  }
};

void PipelineStep(PipelineContext& ctx, size_t depth) {
  if (ctx.stop) return;
  if (depth == ctx.order->size()) {
    ++ctx.emitted;
    if (!ctx.sink->Emit(ctx.binding)) ctx.stop = true;
    return;
  }
  const QueryEdge& qe = ctx.query->Edge((*ctx.order)[depth]);
  NodeId& src_slot = ctx.binding[qe.src];
  NodeId& dst_slot = ctx.binding[qe.dst];
  const bool src_bound = src_slot != kInvalidNode;
  const bool dst_bound = dst_slot != kInvalidNode;
  if (ctx.DeadlineHit()) return;

  if (src_bound && dst_bound) {
    ++ctx.walks;
    if (ctx.store->HasTriple(src_slot, qe.label, dst_slot)) {
      PipelineStep(ctx, depth + 1);
    }
    return;
  }
  if (src_bound) {
    ++ctx.walks;
    for (NodeId o : ctx.store->OutNeighbors(qe.label, src_slot)) {
      if (ctx.stop) return;
      ++ctx.walks;
      dst_slot = o;
      PipelineStep(ctx, depth + 1);
      dst_slot = kInvalidNode;
    }
    return;
  }
  if (dst_bound) {
    ++ctx.walks;
    for (NodeId s : ctx.store->InNeighbors(qe.label, dst_slot)) {
      if (ctx.stop) return;
      ++ctx.walks;
      src_slot = s;
      PipelineStep(ctx, depth + 1);
      src_slot = kInvalidNode;
    }
    return;
  }
  // First edge: scan the label.
  std::vector<std::pair<NodeId, NodeId>> edges =
      ctx.store->EdgeList(qe.label);
  ctx.walks += edges.size();
  for (auto [s, o] : edges) {
    if (ctx.stop) return;
    src_slot = s;
    dst_slot = o;
    PipelineStep(ctx, depth + 1);
    src_slot = kInvalidNode;
    dst_slot = kInvalidNode;
  }
}

}  // namespace

Result<EngineStats> RunPipelined(const Database& db, const QueryGraph& query,
                                 const std::vector<uint32_t>& order,
                                 Sink* sink, const EngineOptions& run) {
  Stopwatch watch;
  PipelineContext ctx;
  ctx.store = &db.store();
  ctx.query = &query;
  ctx.order = &order;
  ctx.sink = sink;
  ctx.probe = InterruptProbe(run.deadline, run.cancel);
  ctx.binding.assign(query.NumVars(), kInvalidNode);
  WF_RETURN_NOT_OK(ctx.probe.CheckNow("pipelined evaluation"));
  PipelineStep(ctx, 0);
  WF_RETURN_NOT_OK(ctx.probe.StatusFor("pipelined evaluation"));
  EngineStats stats;
  stats.seconds = watch.ElapsedSeconds();
  stats.edge_walks = ctx.walks;
  stats.output_tuples = ctx.emitted;
  return stats;
}

namespace {

/// Source rows per morsel of a build step.
constexpr uint64_t kBuildMorsel = 512;

}  // namespace

Result<EngineStats> RunMaterializing(const Database& db,
                                     const QueryGraph& query,
                                     const std::vector<uint32_t>& order,
                                     uint64_t max_cells, Sink* sink,
                                     const EngineOptions& run) {
  Stopwatch watch;
  const TripleStore& store = db.store();
  const uint32_t num_vars = query.NumVars();

  // Rows are full-width bindings; unbound slots hold kInvalidNode.
  std::vector<std::vector<NodeId>> rows;
  EngineStats stats;
  InterruptProbe probe(run.deadline, run.cancel, /*stride=*/1024);

  bool first = true;
  for (uint32_t e : order) {
    const QueryEdge& qe = query.Edge(e);
    std::vector<std::vector<NodeId>> next;

    // Extends one source row by `qe`, appending the surviving bindings to
    // `out` and charging index work to `walks`.
    auto extend_row = [&](std::vector<NodeId>& row,
                          std::vector<std::vector<NodeId>>& out,
                          uint64_t& walks) {
      const bool src_bound = row[qe.src] != kInvalidNode;
      const bool dst_bound = row[qe.dst] != kInvalidNode;
      if (src_bound && dst_bound) {
        ++walks;
        if (store.HasTriple(row[qe.src], qe.label, row[qe.dst])) {
          out.push_back(std::move(row));
        }
      } else if (src_bound) {
        ++walks;
        for (NodeId o : store.OutNeighbors(qe.label, row[qe.src])) {
          ++walks;
          std::vector<NodeId> extended = row;
          extended[qe.dst] = o;
          out.push_back(std::move(extended));
        }
      } else if (dst_bound) {
        ++walks;
        for (NodeId s : store.InNeighbors(qe.label, row[qe.dst])) {
          ++walks;
          std::vector<NodeId> extended = row;
          extended[qe.src] = s;
          out.push_back(std::move(extended));
        }
      } else {
        WF_CHECK(false) << "disconnected materializing plan";
      }
    };

    if (first) {
      first = false;
      store.ForEachEdge(qe.label, [&](NodeId s, NodeId o) {
        std::vector<NodeId> row(num_vars, kInvalidNode);
        row[qe.src] = s;
        row[qe.dst] = o;
        next.push_back(std::move(row));
      });
      stats.edge_walks += next.size();
    } else {
      // Morsel-parallel build: each morsel extends its slice of the
      // previous intermediate into a private chunk; chunks concatenate in
      // morsel order, keeping the intermediate the same for every pool
      // size. Only the shared immutable store is read.
      const uint64_t num_morsels =
          (rows.size() + kBuildMorsel - 1) / kBuildMorsel;
      std::vector<std::vector<std::vector<NodeId>>> chunks(num_morsels);
      std::vector<uint64_t> chunk_walks(num_morsels, 0);
      std::atomic<uint64_t> rows_in_flight{0};
      std::atomic<bool> over_budget{false};
      const Status st = run.Pool()->ParallelFor(
          rows.size(), run.Morsels(kBuildMorsel, &over_budget),
          [&](uint32_t, uint64_t begin, uint64_t end) {
            const uint64_t m = begin / kBuildMorsel;
            for (uint64_t i = begin; i < end; ++i) {
              extend_row(rows[i], chunks[m], chunk_walks[m]);
            }
            const uint64_t produced = rows_in_flight.fetch_add(
                chunks[m].size(), std::memory_order_relaxed);
            if ((produced + chunks[m].size()) * num_vars > max_cells) {
              over_budget.store(true, std::memory_order_relaxed);
            }
          });
      if (st.IsCancelled()) return Status::Cancelled("materializing join");
      if (st.IsTimedOut()) return Status::TimedOut("materializing join");
      uint64_t merged = 0;
      for (const auto& chunk : chunks) merged += chunk.size();
      if (over_budget.load(std::memory_order_relaxed) ||
          merged * num_vars > max_cells) {
        return Status::OutOfRange(
            "intermediate result exceeded the memory budget");
      }
      next.reserve(merged);
      for (uint64_t m = 0; m < num_morsels; ++m) {
        for (std::vector<NodeId>& row : chunks[m]) {
          next.push_back(std::move(row));
        }
        stats.edge_walks += chunk_walks[m];
      }
    }
    rows = std::move(next);
    stats.peak_intermediate =
        std::max(stats.peak_intermediate, static_cast<uint64_t>(rows.size()));
    WF_RETURN_NOT_OK(probe.CheckNow("materializing join"));
    if (static_cast<uint64_t>(rows.size()) * num_vars > max_cells) {
      return Status::OutOfRange(
          "intermediate result exceeded the memory budget");
    }
  }

  for (const std::vector<NodeId>& row : rows) {
    // The final scan honors the run deadline (and cancellation) too, so
    // oversized results cannot stretch a 300 s-style budget unchecked.
    if (probe.Hit()) return probe.StatusFor("materializing join");
    ++stats.output_tuples;
    if (!sink->Emit(row)) break;
  }
  stats.seconds = watch.ElapsedSeconds();
  return stats;
}

}  // namespace wireframe
