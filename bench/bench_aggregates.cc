// Factorized aggregates: COUNT(*) evaluated by the counting DP directly
// on the frozen CSR answer graph vs enumerate-then-count (the same WF
// pipeline materializing every embedding into a counting sink) vs the
// hash-join baseline (PG) folding its rows. The DP is AG-size-bound
// where enumeration is output-size-bound, so the blowup cells (dense
// square, bushy) are where it pays orders of magnitude.
//
// Every cell cross-checks the three counts and fails the run (exit 1)
// on any disagreement — the speedup is only worth recording if the
// answers are bit-identical.
//
//   ./bench_aggregates --json=BENCH_pr8_aggregates.json
//   scripts/bench_diff.py BENCH_pr8_aggregates.json <later>.json
//
// Usage: bench_aggregates [--scale=1.0] [--reps=3] [--threads_list=1,0]
//                         [--timeout=60] [--json=<path>]

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "benchlib/harness.h"
#include "benchlib/json_writer.h"
#include "catalog/catalog.h"
#include "core/wireframe.h"
#include "datagen/synthetic.h"
#include "exec/aggregate_executor.h"
#include "query/parser.h"
#include "util/flags.h"
#include "util/span_kernels.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace wireframe;

namespace {

struct Workload {
  std::string id;
  Database db;
  Catalog catalog;
  QueryGraph count_query;  // select (count(*) as ?c) where { ... }
  QueryGraph plain_query;  // select * where { ... } — same patterns
  bool bushy = false;
};

bool AddWorkload(std::vector<Workload>* out, const std::string& id,
                 Database db, const std::string& patterns,
                 bool bushy = false) {
  Catalog cat = Catalog::Build(db.store());
  auto count_q = SparqlParser::ParseAndBind(
      "select (count(*) as ?c) where " + patterns, db);
  auto plain_q = SparqlParser::ParseAndBind("select * where " + patterns, db);
  if (!count_q.ok() || !plain_q.ok()) {
    std::cerr << "workload " << id << ": parse/bind failed\n";
    return false;
  }
  out->push_back({id, std::move(db), std::move(cat), std::move(*count_q),
                  std::move(*plain_q), bushy});
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 1.0);
  const int reps = static_cast<int>(flags.GetInt("reps", 3));
  const double timeout = flags.GetDouble("timeout", 60.0);
  const std::vector<uint32_t> thread_counts =
      ParseThreadList(flags.GetString("threads_list", "1,0"));
  // One pool per swept thread count, lent to every run at that count.
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (uint32_t threads : thread_counts) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }

  std::cout << "=== Factorized COUNT(*) (DP on the frozen AG) vs"
               " enumerate-then-count ===\n\n";

  std::vector<Workload> workloads;
  {
    // Acyclic chain blowup: |iAG| ~ 2n+1 pairs but n^2 embeddings — the
    // DP reads each span once where enumeration walks n^2 rows.
    const uint32_t fan =
        std::max(8u, static_cast<uint32_t>(600 * scale));
    if (!AddWorkload(&workloads, "chain",
                     MakeChainBlowupGraph(fan, fan, /*noise=*/50),
                     "{ ?w A ?x . ?x B ?y . ?y C ?z . }")) {
      return 1;
    }
  }
  {
    // Cyclic square on a sparse random graph: the cycle DP sweeps the
    // materialized chord with per-pair span intersections.
    const uint64_t edges =
        std::max<uint64_t>(256, static_cast<uint64_t>(6000 * scale));
    if (!AddWorkload(&workloads, "square", MakeRandomGraph(80, 3, edges, 777),
                     "{ ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . }")) {
      return 1;
    }
  }
  {
    // Dense square: same shape, much denser graph — embedding count
    // explodes while the AG stays quadratic in the node count.
    const uint64_t edges =
        std::max<uint64_t>(512, static_cast<uint64_t>(24000 * scale));
    if (!AddWorkload(&workloads, "dense-square",
                     MakeRandomGraph(60, 3, edges, 991),
                     "{ ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . }")) {
      return 1;
    }
  }
  {
    // Bushy star-of-stars: two hub variables with independent fans, so
    // embeddings multiply across branches while the AG stays linear.
    // Kept small — the multiplicative blowup crosses billions of rows
    // (an enumeration timeout, which is the point, but the cell must
    // finish in both modes to certify the count).
    const uint64_t edges =
        std::max<uint64_t>(512, static_cast<uint64_t>(3000 * scale));
    if (!AddWorkload(&workloads, "bushy", MakeRandomGraph(70, 3, edges, 555),
                     "{ ?r p0 ?a . ?r p0 ?b . ?r p1 ?m . ?m p2 ?x . "
                     "?m p2 ?y . }",
                     /*bushy=*/true)) {
      return 1;
    }
  }

  JsonResultWriter json;
  json.SetMeta("bench", "bench_aggregates");
  json.SetMeta("hardware_threads",
               std::to_string(ThreadPool::ResolveThreads(0)));
  json.SetMeta("cpu_features", KernelCpuFeaturesMeta());
  {
    char scale_meta[32];
    std::snprintf(scale_meta, sizeof(scale_meta), "%g", scale);
    json.SetMeta("scale", scale_meta);
  }

  TablePrinter table({"cell", "mode", "threads", "total (s)", "agg (s)",
                      "count", "speedup"});

  bool mismatch = false;
  for (const Workload& w : workloads) {
    WireframeOptions wf_options;
    wf_options.bushy_phase2 = w.bushy;
    // The reference count of this cell (from the first finished mode);
    // every later mode must reproduce it exactly.
    bool have_reference = false;
    std::string reference;
    double enum_seconds = 0.0;  // single-thread enumerate-then-count
    struct Mode {
      std::string tag;
      bool aggregate;  // run the COUNT query (vs plain SELECT + count)
      std::string engine;
    };
    // Enumerate-then-count runs first so its single-thread cell anchors
    // the reference count and the speedup column of the later modes.
    const std::vector<Mode> modes = {{"WF-ENUM", false, "WF"},
                                     {"WF-AGG", true, "WF"},
                                     {"PG", false, "PG"}};
    for (const Mode& mode : modes) {
      for (size_t t = 0; t < thread_counts.size(); ++t) {
        const uint32_t threads = thread_counts[t];
        if (mode.engine == "PG" && threads != thread_counts.front()) {
          continue;  // the baseline is single-configuration
        }
        BenchRecord record;
        record.engine = mode.tag;
        record.query = w.id;
        record.threads = threads;
        double seconds = 0.0, aggregate_seconds = 0.0;
        int timed_runs = 0;
        bool failed = false;
        std::string count_str;
        for (int rep = 0; rep < std::max(1, reps); ++rep) {
          EngineOptions options;
          options.deadline = Deadline::AfterSeconds(timeout);
          options.pool = pools[t].get();
          Stopwatch watch;
          if (mode.engine == "WF") {
            WireframeEngine engine(wf_options);
            CollectingAggregateSink agg_sink;
            CountingSink row_sink;
            Sink* sink = mode.aggregate
                             ? static_cast<Sink*>(&agg_sink)
                             : static_cast<Sink*>(&row_sink);
            const QueryGraph& q =
                mode.aggregate ? w.count_query : w.plain_query;
            auto detail = engine.RunDetailed(w.db, w.catalog, q, options,
                                             sink);
            if (!detail.ok()) {
              record.timed_out = detail.status().IsTimedOut();
              failed = true;
              break;
            }
            count_str = mode.aggregate
                            ? detail->aggregate.value.ToString()
                            : std::to_string(row_sink.count());
            record.edge_walks = detail->stats.edge_walks;
            record.output_tuples = detail->stats.output_tuples;
            record.ag_pairs = detail->stats.ag_pairs;
            if (rep > 0 || reps == 1) {
              seconds += detail->stats.seconds;
              aggregate_seconds += detail->stats.aggregate_seconds;
              ++timed_runs;
            }
          } else {
            std::unique_ptr<Engine> engine = MakeEngine(mode.engine);
            CountingSink row_sink;
            auto stats = engine->Run(w.db, w.catalog, w.plain_query,
                                     options, &row_sink);
            if (!stats.ok()) {
              record.timed_out = stats.status().IsTimedOut();
              failed = true;
              break;
            }
            count_str = std::to_string(row_sink.count());
            record.output_tuples = row_sink.count();
            if (rep > 0 || reps == 1) {
              seconds += watch.ElapsedSeconds();
              ++timed_runs;
            }
          }
        }
        if (failed) {
          table.AddRow({w.id, mode.tag, std::to_string(threads),
                        TablePrinter::Timeout(), "-", "-", "-"});
          json.Add(record);
          continue;
        }
        const int divisor = std::max(1, timed_runs);
        record.ok = true;
        record.seconds = seconds / divisor;
        record.aggregate_seconds = aggregate_seconds / divisor;
        if (!have_reference) {
          have_reference = true;
          reference = count_str;
        } else if (count_str != reference) {
          std::cerr << "COUNT MISMATCH in cell " << w.id << " mode "
                    << mode.tag << " threads " << threads << ": got "
                    << count_str << ", reference " << reference << "\n";
          mismatch = true;
        }
        if (mode.tag == "WF-ENUM" && threads == thread_counts.front()) {
          enum_seconds = record.seconds;
        }
        std::string speedup = "-";
        if (mode.tag != "WF-ENUM" && enum_seconds > 0.0 &&
            record.seconds > 0.0) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.1fx",
                        enum_seconds / record.seconds);
          speedup = buf;
        }
        table.AddRow({w.id, mode.tag, std::to_string(threads),
                      TablePrinter::FormatSeconds(record.seconds),
                      TablePrinter::FormatSeconds(record.aggregate_seconds),
                      count_str, speedup});
        json.Add(record);
      }
    }
  }
  table.Print(std::cout);
  std::cout << "(WF-AGG = counting DP on the frozen AG, no embedding"
               " materialized;\n WF-ENUM = same pipeline enumerating into"
               " a counting sink; PG = hash join.\n Speedup column is vs"
               " the single-thread WF-ENUM cell, where available.)\n";
  if (mismatch) {
    std::cerr << "\nFAILED: counts disagree between modes\n";
    return 1;
  }
  if (flags.Has("json")) json.WriteTo(flags.GetString("json", ""));
  return 0;
}
