#ifndef WIREFRAME_BENCHLIB_HARNESS_H_
#define WIREFRAME_BENCHLIB_HARNESS_H_

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "benchlib/json_writer.h"
#include "catalog/catalog.h"
#include "exec/engine.h"
#include "query/query_graph.h"
#include "storage/database.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace wireframe {

/// One query of a bench suite.
struct BenchQuery {
  std::string id;       // row label, e.g. "1"
  std::string label;    // predicate list, paper style
  QueryGraph query;
};

/// Configuration of a Table-1-style run.
struct BenchConfig {
  /// Engines to run, in column order (paper: PG, WF, VT, MD, NJ).
  std::vector<std::string> engines = {"PG", "WF", "VT", "MD", "NJ"};
  /// Per-query, per-engine wall-clock budget in seconds (the paper uses
  /// 300; laptop-scale data needs less).
  double timeout_seconds = 60.0;
  /// Runs per engine; the reported time averages the warm runs (the paper
  /// runs five and averages the last four). Slow engines that time out or
  /// blow the memory budget are not re-run.
  int repetitions = 2;
  /// Print per-query phase diagnostics for WF.
  bool verbose = false;
  /// Size of the one ThreadPool the harness lends to every engine run (1 =
  /// morsel loops inline on the calling thread, 0 = all hardware cores).
  uint32_t threads = 1;
  /// When set, RunSuite appends one BenchRecord per (query, engine) cell
  /// (not owned; the driver writes the file).
  JsonResultWriter* json = nullptr;
};

/// Result of one (query, engine) cell.
struct BenchCell {
  bool ok = false;
  bool timed_out = false;
  std::string error;
  double seconds = 0.0;
  /// Worker threads the cell ran with: the pool size for engines that
  /// use the pool, 1 for the serial baselines.
  uint32_t threads = 1;
  EngineStats stats;
  /// Wireframe phase breakdown, averaged over the warm repetitions like
  /// `seconds` (0 for baselines: they have no phases). burnback/freeze
  /// are slices of phase 1.
  double phase1_seconds = 0.0;
  double burnback_seconds = 0.0;
  double freeze_seconds = 0.0;
  double phase2_seconds = 0.0;
};

/// Parses a driver's --engines value: comma-separated engine names
/// ("WF" or "WF,NJ"), in column order. Exits with a message on an empty
/// list or a name MakeEngine does not know.
std::vector<std::string> ParseEngineList(const std::string& value);

/// Parses a driver's --threads_list value: comma-separated non-negative
/// integer thread counts ("1,2,4"). Each is resolved through
/// ThreadPool::ResolveThreads (0 = all hardware cores) and repeats of a
/// resolved count are dropped, keeping the first. Exits with a usage
/// message on an empty entry or any entry that is not a non-negative
/// integer that fits in 32 bits.
std::vector<uint32_t> ParseThreadList(const std::string& value);

/// Flattens one bench cell into the machine-readable record shape.
BenchRecord ToRecord(const std::string& engine, const std::string& query_id,
                     const BenchCell& cell);

/// Runs every configured engine on every query and renders the paper's
/// Table 1 layout: per-system time (or '*'), |AG| and |Embeddings| taken
/// from the Wireframe run. Every run borrows the harness's one pool.
class Table1Harness {
 public:
  Table1Harness(const Database& db, const Catalog& catalog,
                BenchConfig config)
      : db_(&db),
        catalog_(&catalog),
        config_(std::move(config)),
        pool_(ThreadPool::ResolveThreads(config_.threads)) {}

  /// Evaluates one cell (averaging warm repetitions).
  BenchCell RunCell(const QueryGraph& query, const std::string& engine_name);

  /// Runs the whole suite and prints the table to `os`.
  void RunSuite(const std::vector<BenchQuery>& queries, std::ostream& os);

  /// The pool every cell borrows; drivers may lend it to their own runs.
  ThreadPool& pool() { return pool_; }

 private:
  const Database* db_;
  const Catalog* catalog_;
  BenchConfig config_;
  ThreadPool pool_;
};

}  // namespace wireframe

#endif  // WIREFRAME_BENCHLIB_HARNESS_H_
