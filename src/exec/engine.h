#ifndef WIREFRAME_EXEC_ENGINE_H_
#define WIREFRAME_EXEC_ENGINE_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/catalog.h"
#include "exec/sink.h"
#include "query/query_graph.h"
#include "storage/database.h"
#include "util/result.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace wireframe {

/// The run context of one query: its budget, the pool its morsel loops
/// run on, its cancel flag and its scheduler weight. Every phase that can
/// be interrupted takes it by const reference. Borrowed fields (the owner
/// outlives the Run) may be left at their defaults.
struct EngineOptions {
  /// Wall-clock budget; expired runs return Status::TimedOut (the paper
  /// terminates queries at 300 s and prints '*').
  Deadline deadline;
  /// The worker pool every morsel-parallel loop of the run is submitted
  /// to, as a fairly-scheduled task-group that interleaves with other
  /// callers' loops at morsel granularity. This is the only way to give a
  /// run threads: a query runtime lends its shared pool, a standalone
  /// caller builds a ThreadPool(n) and lends it to as many runs as it
  /// likes. Null runs every loop inline on the calling thread
  /// (InlinePool). Results are pool-size-invariant: the embedding
  /// multiset and |AG| are identical for every pool.
  ThreadPool* pool = nullptr;
  /// Cooperative cancellation: engines poll this flag on the same
  /// amortized cadence as the deadline and return Status::Cancelled once
  /// it is set. Results already emitted to the sink stay emitted.
  std::atomic<bool>* cancel = nullptr;
  /// Scheduler weight of every task-group this run submits to `pool`
  /// (service class, see runtime::TenantSpec): pool workers divide
  /// themselves between concurrent queries' morsel loops in proportion to
  /// this, so a latency-class run preempts batch runs at morsel
  /// granularity without starving them.
  uint32_t weight = 1;

  /// The pool to run morsel loops on: `pool`, or InlinePool() when null.
  ThreadPool* Pool() const { return pool != nullptr ? pool : InlinePool(); }

  /// ParallelFor options for one morsel loop of this run: `morsel_size`,
  /// this run's deadline, cancel flag and weight, and the loop's own
  /// early-stop flag `stop` (may be null).
  ParallelForOptions Morsels(uint64_t morsel_size,
                             std::atomic<bool>* stop = nullptr) const {
    ParallelForOptions options;
    options.morsel_size = morsel_size;
    options.deadline = deadline;
    options.stop = stop;
    options.cancel = cancel;
    options.weight = weight;
    return options;
  }
};

/// Execution metrics an engine reports alongside its results.
struct EngineStats {
  /// Wall-clock seconds of the Run call.
  double seconds = 0.0;
  /// Edge walks: index probes plus edges retrieved (the paper's cost
  /// unit). Engines count what their access pattern actually retrieves.
  uint64_t edge_walks = 0;
  /// Embeddings emitted to the sink.
  uint64_t output_tuples = 0;
  /// Answer-graph size |AG| (Wireframe only; 0 for baselines).
  uint64_t ag_pairs = 0;
  /// Peak materialized intermediate tuples (materializing engines only).
  uint64_t peak_intermediate = 0;
  // Node-burnback diagnostics (Wireframe only; 0 for baselines). Carried
  // here so the runtime's QueryReport surfaces them per query.
  /// Pairs erased by cascading node burnback (thread-count invariant).
  uint64_t pairs_burned = 0;
  /// Deepest cascade level reached (seed deaths are depth 1).
  uint64_t burnback_depth = 0;
  /// Cascade deaths handed across worklist partitions by the parallel
  /// drain (0 on serial drains).
  uint64_t burnback_handoffs = 0;
  // Phase wall-time split (Wireframe only; 0 for baselines — they have
  // no phases). burnback/freeze are slices of phase 1. On EngineStats so
  // generic consumers (bench harness, runtime reports) need no
  // engine-specific casts.
  double phase1_seconds = 0.0;
  double burnback_seconds = 0.0;
  double freeze_seconds = 0.0;
  double phase2_seconds = 0.0;
  /// Slice of phase 2 spent producing an aggregate result (the counting
  /// DP, or the enumerate-then-count fallback). 0 for plain SELECTs.
  double aggregate_seconds = 0.0;
};

/// A conjunctive-query evaluator. Implementations: the Wireframe
/// answer-graph engine (core/) and the four baseline regimes (exec/)
/// standing in for the paper's PostgreSQL, Virtuoso, MonetDB, and Neo4J
/// comparisons.
class Engine {
 public:
  virtual ~Engine();

  /// Short identifier ("WF", "PG", "VT", "MD", "NJ").
  virtual std::string_view name() const = 0;

  /// True iff Run submits morsel loops to `options.pool`
  /// (Wireframe's two phases and the hash-join baseline's build side).
  /// The pipelined baselines are inherently tuple-at-a-time and stay
  /// serial; benches use this to record the thread count a cell actually
  /// ran with.
  virtual bool SupportsThreads() const { return false; }

  /// Evaluates `query` over `db`, emitting every embedding to `sink`.
  /// Timeout surfaces as Status::TimedOut; other statuses are planning or
  /// validation failures.
  virtual Result<EngineStats> Run(const Database& db, const Catalog& catalog,
                                  const QueryGraph& query,
                                  const EngineOptions& options,
                                  Sink* sink) = 0;
};

/// Instantiates a baseline engine by its paper tag ("PG", "VT", "MD",
/// "NJ") or the Wireframe engine ("WF", default options). Unknown names
/// return nullptr.
std::unique_ptr<Engine> MakeEngine(std::string_view name);

/// All engine tags in the paper's column order: PG, WF, VT, MD, NJ.
std::vector<std::string> AllEngineNames();

}  // namespace wireframe

#endif  // WIREFRAME_EXEC_ENGINE_H_
