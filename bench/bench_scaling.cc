// Scaling sweeps (implicit in the paper's title: *large* graphs).
//
// Default mode: WF vs the baseline regimes as the YAGO-like graph grows.
// The answer-graph method's advantage should widen with scale because
// baselines pay per embedding (or per materialized intermediate) while
// WF's phase 1 pays per answer-graph edge.
//
// --threads_sweep mode: fixed graph, sweep the worker-thread count over
// the morsel-driven parallel phases (phase-1 generation, phase-2
// enumeration, and the PG baseline's build side) and report per-phase
// wall-clock plus the speedup curve relative to threads=1. One command
// produces the whole curve:
//
//   bench_scaling --threads_sweep --scale=1.0 --json=BENCH_pr2.json
//
// Usage: bench_scaling [--scales=0.05,0.1,0.2,0.4] [--timeout=30]
//                      [--query=2] [--threads=1] [--json=<path>]
//        bench_scaling --threads_sweep [--threads_list=1,2,4,8]
//                      [--scale=1.0] [--query=2] [--reps=2]
//                      [--timeout=60] [--json=<path>]

#include <iostream>
#include <sstream>

#include "benchlib/harness.h"
#include "catalog/catalog.h"
#include "core/wireframe.h"
#include "datagen/yago_like.h"
#include "query/parser.h"
#include "util/flags.h"
#include "util/span_kernels.h"
#include "util/table_printer.h"
#include "util/timer.h"

using namespace wireframe;

namespace {

std::vector<double> ParseList(const std::string& csv) {
  std::vector<double> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::atof(item.c_str()));
  return out;
}

/// One measured WF run at a given thread count: phase split from
/// RunDetailed, averaged over the warm repetitions.
struct SweepPoint {
  bool ok = false;
  bool timed_out = false;  // timeout or memory-budget abort, paper-style
  double seconds = 0.0;
  double phase1 = 0.0;
  double burnback = 0.0;
  double freeze = 0.0;
  double phase2 = 0.0;
  uint64_t ag_pairs = 0;
  uint64_t embeddings = 0;
  uint64_t edge_walks = 0;
};

SweepPoint RunWfPoint(const Database& db, const Catalog& catalog,
                      const QueryGraph& q, ThreadPool* pool, int reps,
                      double timeout) {
  SweepPoint point;
  WireframeEngine engine;
  int timed_runs = 0;
  for (int rep = 0; rep < std::max(1, reps); ++rep) {
    EngineOptions options;
    options.deadline = Deadline::AfterSeconds(timeout);
    options.pool = pool;
    CountingSink sink;
    auto detail = engine.RunDetailed(db, catalog, q, options, &sink);
    if (!detail.ok()) {
      point.timed_out = detail.status().IsTimedOut() ||
                        detail.status().code() == StatusCode::kOutOfRange;
      return point;
    }
    // Warm-cache averaging: skip the first (cold) run when we have more.
    if (rep > 0 || reps == 1) {
      point.seconds += detail->stats.seconds;
      point.phase1 += detail->stats.phase1_seconds;
      point.burnback += detail->stats.burnback_seconds;
      point.freeze += detail->stats.freeze_seconds;
      point.phase2 += detail->stats.phase2_seconds;
      ++timed_runs;
    }
    point.ag_pairs = detail->stats.ag_pairs;
    point.embeddings = detail->stats.output_tuples;
    point.edge_walks = detail->stats.edge_walks;
  }
  point.ok = true;
  point.seconds /= std::max(1, timed_runs);
  point.phase1 /= std::max(1, timed_runs);
  point.burnback /= std::max(1, timed_runs);
  point.freeze /= std::max(1, timed_runs);
  point.phase2 /= std::max(1, timed_runs);
  return point;
}

/// Validates --query against the Table-1 suite; returns the 0-based
/// index or -1 after printing a usage error.
int64_t Table1QueryIndex(const Flags& flags) {
  const int64_t query = flags.GetInt("query", 2);
  const size_t num = Table1Queries().size();
  if (query < 1 || static_cast<size_t>(query) > num) {
    std::cerr << "--query must be in [1, " << num << "], got " << query
              << "\n";
    return -1;
  }
  return query - 1;
}

int RunThreadsSweep(const Flags& flags) {
  const double timeout = flags.GetDouble("timeout", 60.0);
  const int reps = static_cast<int>(flags.GetInt("reps", 2));
  const int64_t query_signed = Table1QueryIndex(flags);
  if (query_signed < 0) return 1;
  const size_t query_index = static_cast<size_t>(query_signed);
  const std::vector<uint32_t> thread_counts =
      ParseThreadList(flags.GetString("threads_list", "1,2,4,8"));

  YagoLikeConfig config;
  config.scale = flags.GetDouble("scale", 1.0);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  Stopwatch watch;
  Database db = MakeYagoLike(config);
  Catalog catalog = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(Table1Queries()[query_index], db);
  if (!q.ok()) {
    std::cerr << q.status().ToString() << "\n";
    return 1;
  }

  std::cout << "=== Threads sweep: Table-1 query " << (query_index + 1)
            << ", scale " << config.scale << " ("
            << db.store().NumTriples() << " triples, built in "
            << watch.ElapsedMillis() << " ms) ===\n"
            << "hardware threads available: "
            << ThreadPool::ResolveThreads(0) << "\n\n";

  JsonResultWriter json;
  // Provenance: a sweep recorded on a single-core box legitimately shows
  // a flat curve, so the JSON must say what it ran on. The scale is the
  // resolved value the graph was actually built with.
  char scale_meta[32];
  std::snprintf(scale_meta, sizeof(scale_meta), "%g", config.scale);
  json.SetMeta("bench", "bench_scaling --threads_sweep");
  json.SetMeta("hardware_threads",
               std::to_string(ThreadPool::ResolveThreads(0)));
  json.SetMeta("cpu_features", KernelCpuFeaturesMeta());
  json.SetMeta("scale", scale_meta);
  json.SetMeta("reps", std::to_string(reps));
  const std::string query_id = "T1-Q" + std::to_string(query_index + 1);

  TablePrinter table({"threads", "WF total (s)", "phase1 (s)", "phase2 (s)",
                      "p1 speedup", "p2 speedup", "PG (s)", "PG speedup"});
  SweepPoint wf_base;
  double pg_base = 0.0;
  uint32_t base_threads = 0;  // 0 until the first completed row
  // ParseThreadList resolved 0 to all cores, so the table and the JSON
  // records both report the thread count each row actually ran with.
  for (const uint32_t threads : thread_counts) {
    BenchConfig bench;
    bench.timeout_seconds = timeout;
    bench.repetitions = reps;
    bench.threads = threads;
    Table1Harness harness(db, catalog, bench);
    // WF and PG borrow the harness's one pool for this thread count.
    SweepPoint wf = RunWfPoint(db, catalog, *q, &harness.pool(), reps, timeout);
    BenchCell pg = harness.RunCell(*q, "PG");

    // Each engine's speedups are relative to its first row that
    // completed (normally the threads=1 entry of the default list); a
    // timed-out row must not lock in a zero baseline.
    if (base_threads == 0 && wf.ok) {
      wf_base = wf;
      base_threads = threads;
    }
    if (pg_base == 0.0 && pg.ok) pg_base = pg.seconds;
    auto speedup = [](double base, double now) -> std::string {
      if (base <= 0.0 || now <= 0.0) return "?";
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2fx", base / now);
      return buf;
    };
    table.AddRow({std::to_string(threads),
                  wf.ok ? TablePrinter::FormatSeconds(wf.seconds)
                        : TablePrinter::Timeout(),
                  TablePrinter::FormatSeconds(wf.phase1),
                  TablePrinter::FormatSeconds(wf.phase2),
                  speedup(wf_base.phase1, wf.phase1),
                  speedup(wf_base.phase2, wf.phase2),
                  pg.ok ? TablePrinter::FormatSeconds(pg.seconds)
                        : TablePrinter::Timeout(),
                  speedup(pg_base, pg.ok ? pg.seconds : 0.0)});

    BenchRecord record;
    record.engine = "WF";
    record.query = query_id;
    record.ok = wf.ok;
    record.timed_out = wf.timed_out;
    record.seconds = wf.seconds;
    record.edge_walks = wf.edge_walks;
    record.output_tuples = wf.embeddings;
    record.ag_pairs = wf.ag_pairs;
    record.threads = threads;
    record.phase1_seconds = wf.phase1;
    record.burnback_seconds = wf.burnback;
    record.freeze_seconds = wf.freeze;
    record.phase2_seconds = wf.phase2;
    json.Add(record);
    json.Add(ToRecord("PG", query_id, pg));
  }
  table.Print(std::cout);
  std::cout << "(speedups are relative to threads="
            << (base_threads == 0 ? 1 : base_threads)
            << "; the embedding multiset\n"
               " and |AG| are identical at every thread count)\n";
  if (flags.Has("json")) json.WriteTo(flags.GetString("json", ""));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.GetBool("threads_sweep", false)) return RunThreadsSweep(flags);

  const double timeout = flags.GetDouble("timeout", 30.0);
  const int64_t query_signed = Table1QueryIndex(flags);
  if (query_signed < 0) return 1;
  const size_t query_index = static_cast<size_t>(query_signed);
  const uint32_t threads =
      static_cast<uint32_t>(flags.GetInt("threads", 1));
  std::vector<double> scales =
      ParseList(flags.GetString("scales", "0.05,0.1,0.2,0.4"));

  std::cout << "=== Scaling: Table-1 query " << (query_index + 1)
            << " vs graph size ===\n\n";

  JsonResultWriter json;
  TablePrinter table({"scale", "triples", "WF (s)", "PG (s)", "VT (s)",
                      "NJ (s)", "|AG|", "|Embeddings|"});
  for (double scale : scales) {
    YagoLikeConfig config;
    config.scale = scale;
    config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    Database db = MakeYagoLike(config);
    Catalog catalog = Catalog::Build(db.store());
    auto q = SparqlParser::ParseAndBind(Table1Queries()[query_index], db);
    if (!q.ok()) return 1;

    BenchConfig bench;
    bench.timeout_seconds = timeout;
    bench.repetitions = 2;
    bench.threads = threads;
    Table1Harness harness(db, catalog, bench);

    char scale_text[32];
    std::snprintf(scale_text, sizeof(scale_text), "%.2f", scale);
    auto cell = [&](const char* name) {
      BenchCell c = harness.RunCell(*q, name);
      if (flags.Has("json")) {
        json.Add(ToRecord(name, std::string("scale") + scale_text, c));
      }
      return std::pair<std::string, BenchCell>(
          c.ok ? TablePrinter::FormatSeconds(c.seconds)
               : TablePrinter::Timeout(),
          c);
    };
    auto [wf_text, wf] = cell("WF");
    auto [pg_text, pg] = cell("PG");
    auto [vt_text, vt] = cell("VT");
    auto [nj_text, nj] = cell("NJ");

    table.AddRow({scale_text,
                  TablePrinter::FormatCount(db.store().NumTriples()),
                  wf_text, pg_text, vt_text, nj_text,
                  wf.ok ? TablePrinter::FormatCount(wf.stats.ag_pairs) : "?",
                  wf.ok ? TablePrinter::FormatCount(wf.stats.output_tuples)
                        : "?"});
  }
  table.Print(std::cout);
  if (flags.Has("json")) json.WriteTo(flags.GetString("json", ""));
  return 0;
}
