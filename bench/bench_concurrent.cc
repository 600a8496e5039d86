// Concurrent multi-query serving: the shared QueryRuntime vs back-to-back
// per-query pools.
//
// A batch of Table-1 queries is served two ways over the same YAGO-like
// graph:
//
//   - shared:  a runtime::Server with one process-wide ThreadPool and
//              admission control, at 1/4/16 in-flight queries. In-flight
//              queries' morsel loops interleave fairly on the one pool.
//   - backtoback: the historical mode — each query runs alone with a
//              private pool (EngineOptions::threads), one after another.
//
// Reported per cell: batch wall clock, aggregate throughput (queries/s),
// and p50/p99 end-to-end latency (admission queue wait + execution). On a
// multi-core box the 4-in-flight shared row should beat back-to-back on
// throughput: single-query scaling stalls on planning and the phase
// barriers, and the shared pool backfills those gaps with other queries'
// morsels. The embedding counts are identical in every mode.
//
// Mixed-class mode (--mixed): one latency-class query stream vs N
// continuously re-submitted batch-class queries on one runtime, run twice
// — fair (no service classes: every query is "default", the PR 3
// scheduler) and prioritized (latency weight 16 + a batch in-flight
// quota) — reporting per-class p50/p99 and batch throughput. The
// prioritized run must cut the latency class's p99 below the fair
// baseline while batch throughput stays within a few percent (the quota
// only re-orders batch work, it does not drop it). Recorded as
// BENCH_pr4_priority.json.
//
// Zipf cache mix (--zipf): the Table-1 suite sampled Zipf-skewed into a
// batch of repeats, served twice on one graph — cache off (every run
// cold) and with the answer-graph cache on (repeats of a canonical shape
// reuse the frozen AG and skip phase 1 + burnback). Per-query row counts
// must be identical in both modes; the JSON records split the cached run
// into hit-path and miss-path phase timings (hit-path phase1/burnback
// are 0 by construction) and carry the per-tenant hit/miss/evict
// counters. Recorded as BENCH_pr6_cache.json.
//
// Usage: bench_concurrent [--scale=0.4] [--queries=20] [--timeout=60]
//                         [--inflight_list=1,4,16] [--threads=0]
//                         [--row_budget=0] [--json=<path>]
//        bench_concurrent --mixed [--batch_inflight=16] [--window=5]
//                         [--interval_ms=50] [--latency_weight=16]
//                         [--batch_quota=2] [--scale=0.4] [--threads=0]
//                         [--timeout=60] [--json=<path>]
//        bench_concurrent --zipf [--queries=60] [--zipf_s=1.0]
//                         [--cache_mb=256] [--inflight=4] [--scale=0.4]
//                         [--threads=0] [--timeout=60] [--seed=42]
//                         [--json=<path>]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "benchlib/harness.h"
#include "benchlib/stats.h"
#include "catalog/catalog.h"
#include "datagen/yago_like.h"
#include "exec/engine.h"
#include "query/parser.h"
#include "runtime/server.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/span_kernels.h"
#include "util/table_printer.h"
#include "util/timer.h"

using namespace wireframe;

namespace {

std::vector<uint32_t> ParseIntList(const std::string& csv) {
  std::vector<uint32_t> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    out.push_back(static_cast<uint32_t>(std::atoi(item.c_str())));
  }
  return out;
}

struct CellResult {
  double wall_seconds = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t ok = 0;
  uint64_t total_rows = 0;
};

std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", ms);
  return buf;
}

// --- Mixed-class serving (--mixed). ---

struct MixedConfig {
  uint32_t batch_inflight = 16;
  /// The latency tenant is an OPEN-LOOP stream: one query submitted every
  /// interval_seconds for window_seconds, whether or not the previous one
  /// finished. Both modes therefore offer the identical latency load, so
  /// their batch throughputs are directly comparable — a closed loop
  /// (submit-wait-resubmit) would let the prioritized run issue far more
  /// latency queries and masquerade stolen batch CPU as a scheduling
  /// effect. Backed-up arrivals simply overlap; the pile-up shows where
  /// it belongs, in the latency class's own p99.
  double window_seconds = 5.0;
  double interval_seconds = 0.05;
  int warmup_iters = 3;
  uint32_t latency_weight = 16;
  uint32_t batch_quota = 2;
  uint32_t threads = 0;
  double timeout = 60.0;
  /// false = fair baseline (no tenants), true = service classes on.
  bool priority = false;
};

struct MixedResult {
  std::vector<double> latency_ms;  // end-to-end, one per latency iteration
  uint64_t batch_completed = 0;    // batch queries finished in the window
  double window_seconds = 0.0;     // latency stream duration
  bool ok = true;
};

/// Runs one mixed-class scenario: `batch_inflight` load threads keep one
/// batch-class query in flight each (resubmitting on completion) while
/// the calling thread plays the latency tenant's open-loop arrival
/// process, timing every query end-to-end (admission queue wait +
/// execution). Batch throughput is counted over the arrival window only,
/// which has the same length in both modes.
MixedResult RunMixed(const Database& db, const Catalog& cat,
                     const std::string& latency_query,
                     const std::vector<std::string>& batch_queries,
                     const MixedConfig& cfg) {
  runtime::ServerOptions server_options;
  server_options.runtime.pool_threads = cfg.threads;
  // Heavily backed-up latency arrivals (fair mode) overlap; leave them
  // driver room and queue space beyond the batch load.
  server_options.runtime.admission.max_inflight = cfg.batch_inflight + 8;
  server_options.runtime.admission.max_queued = cfg.batch_inflight + 1024;
  server_options.timeout_seconds = cfg.timeout;
  if (cfg.priority) {
    runtime::TenantSpec latency;
    latency.name = "latency";
    latency.weight = cfg.latency_weight;
    runtime::TenantSpec batch;
    batch.name = "batch";
    batch.weight = 1;
    batch.max_inflight = cfg.batch_quota;
    batch.when_at_quota = runtime::QuotaPolicy::kQueue;
    server_options.runtime.admission.tenants = {latency, batch};
  }
  runtime::Server server(db, cat, server_options);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> batch_completed{0};
  std::vector<std::thread> load;
  load.reserve(cfg.batch_inflight);
  for (uint32_t t = 0; t < cfg.batch_inflight; ++t) {
    load.emplace_back([&, t] {
      size_t i = t;  // stagger the cycle so the mix stays heterogeneous
      while (!stop.load(std::memory_order_relaxed)) {
        auto session = server.Submit(
            batch_queries[i % batch_queries.size()], nullptr, "batch");
        if (!session.ok()) break;  // shutdown race; the window is over
        (*session)->Wait();
        batch_completed.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }
  // Saturation barrier: every load thread has a query in the system
  // before the first measured latency iteration.
  while (server.runtime().stats().submitted < cfg.batch_inflight) {
    std::this_thread::yield();
  }

  MixedResult result;
  // Warmup: a few closed-loop completions touch every code path before
  // the measured window opens.
  for (int it = 0; it < cfg.warmup_iters && result.ok; ++it) {
    auto session = server.Submit(latency_query, nullptr, "latency");
    if (!session.ok()) {
      result.ok = false;
      break;
    }
    (*session)->Wait();
    if ((*session)->outcome() != runtime::QueryOutcome::kCompleted) {
      result.ok = false;
    }
  }

  const int arrivals = std::max(
      1, static_cast<int>(cfg.window_seconds / cfg.interval_seconds));
  std::vector<std::shared_ptr<runtime::QuerySession>> sessions;
  sessions.reserve(arrivals);
  const uint64_t batch_before = batch_completed.load();
  const auto start = std::chrono::steady_clock::now();
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(cfg.interval_seconds));
  Stopwatch window;
  for (int k = 0; k < arrivals && result.ok; ++k) {
    std::this_thread::sleep_until(start + k * interval);
    auto session = server.Submit(latency_query, nullptr, "latency");
    if (!session.ok()) {
      result.ok = false;
      break;
    }
    sessions.push_back(std::move(session).value());
  }
  // Batch throughput over the arrival window only: same wall length in
  // both modes (the backlog drain below is excluded).
  result.window_seconds = window.ElapsedSeconds();
  result.batch_completed = batch_completed.load() - batch_before;
  for (auto& session : sessions) {
    session->Wait();
    if (session->outcome() != runtime::QueryOutcome::kCompleted) {
      result.ok = false;
    }
    result.latency_ms.push_back(
        (session->queue_seconds() + session->run_seconds()) * 1e3);
  }
  stop.store(true);
  for (std::thread& t : load) t.join();
  return result;
}

int MainMixed(Flags& flags) {
  MixedConfig cfg;
  cfg.batch_inflight =
      static_cast<uint32_t>(flags.GetInt("batch_inflight", 16));
  cfg.window_seconds = flags.GetDouble("window", 5.0);
  cfg.interval_seconds = flags.GetDouble("interval_ms", 50.0) / 1e3;
  cfg.warmup_iters = static_cast<int>(flags.GetInt("warmup_iters", 3));
  cfg.latency_weight =
      static_cast<uint32_t>(flags.GetInt("latency_weight", 16));
  cfg.batch_quota = static_cast<uint32_t>(flags.GetInt("batch_quota", 2));
  cfg.threads = static_cast<uint32_t>(flags.GetInt("threads", 0));
  cfg.timeout = flags.GetDouble("timeout", 60.0);
  const double scale = flags.GetDouble("scale", 0.4);

  YagoLikeConfig config;
  config.scale = scale;
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  Database db = MakeYagoLike(config);
  Catalog catalog = Catalog::Build(db.store());

  // The latency tenant runs the suite's cheapest query (probed serially);
  // the batch tenants cycle the whole suite.
  const std::vector<std::string> suite = Table1Queries();
  size_t cheapest = 0;
  double cheapest_seconds = -1.0;
  for (size_t i = 0; i < suite.size(); ++i) {
    auto query = SparqlParser::ParseAndBind(suite[i], db);
    if (!query.ok()) continue;
    auto engine = MakeEngine("WF");
    EngineOptions options;
    options.deadline = Deadline::AfterSeconds(cfg.timeout);
    CountingSink sink;
    Stopwatch one;
    auto stats = engine->Run(db, catalog, *query, options, &sink);
    const double seconds = one.ElapsedSeconds();
    if (!stats.ok()) continue;
    if (cheapest_seconds < 0.0 || seconds < cheapest_seconds) {
      cheapest_seconds = seconds;
      cheapest = i;
    }
  }

  const uint32_t pool_threads = ThreadPool::ResolveThreads(cfg.threads);
  std::cout << "=== Mixed-class serving: open-loop latency stream ("
            << cfg.window_seconds << " s window, one suite-query-" << cheapest
            << " arrival per " << cfg.interval_seconds * 1e3 << " ms) vs "
            << cfg.batch_inflight
            << " in-flight batch queries, scale " << scale << " ("
            << db.store().NumTriples() << " triples), pool threads "
            << pool_threads << " ===\n"
            << "priority run: latency weight " << cfg.latency_weight
            << ", batch quota " << cfg.batch_quota << " (kQueue)\n\n";

  MixedConfig fair = cfg;
  fair.priority = false;
  const MixedResult fair_result =
      RunMixed(db, catalog, suite[cheapest], suite, fair);
  MixedConfig prio = cfg;
  prio.priority = true;
  const MixedResult prio_result =
      RunMixed(db, catalog, suite[cheapest], suite, prio);

  JsonResultWriter json;
  char scale_meta[32];
  std::snprintf(scale_meta, sizeof(scale_meta), "%g", config.scale);
  json.SetMeta("bench", "bench_concurrent --mixed");
  json.SetMeta("hardware_threads",
               std::to_string(ThreadPool::ResolveThreads(0)));
  json.SetMeta("cpu_features", KernelCpuFeaturesMeta());
  json.SetMeta("pool_threads", std::to_string(pool_threads));
  json.SetMeta("scale", scale_meta);
  json.SetMeta("batch_inflight", std::to_string(cfg.batch_inflight));
  char window_meta[32];
  std::snprintf(window_meta, sizeof(window_meta), "%g", cfg.window_seconds);
  json.SetMeta("window_seconds", window_meta);
  char interval_meta[32];
  std::snprintf(interval_meta, sizeof(interval_meta), "%g",
                cfg.interval_seconds * 1e3);
  json.SetMeta("latency_interval_ms", interval_meta);
  json.SetMeta("latency_weight", std::to_string(cfg.latency_weight));
  json.SetMeta("batch_quota", std::to_string(cfg.batch_quota));

  TablePrinter table({"mode", "class", "p50 (ms)", "p99 (ms)",
                      "batch done", "batch q/s", "window (s)", "ok"});
  auto report = [&](const char* mode, const MixedResult& result) {
    const double p50 = Percentile(result.latency_ms, 50);
    const double p99 = Percentile(result.latency_ms, 99);
    const double batch_qps =
        result.window_seconds > 0.0
            ? static_cast<double>(result.batch_completed) /
                  result.window_seconds
            : 0.0;
    table.AddRow({mode, "latency", FormatMs(p50), FormatMs(p99),
                  std::to_string(result.batch_completed),
                  TablePrinter::FormatSeconds(batch_qps),
                  TablePrinter::FormatSeconds(result.window_seconds),
                  result.ok ? "yes" : "NO"});
    BenchRecord latency_record;
    latency_record.engine = "WF";
    latency_record.query = std::string("mixed-latency-") + mode;
    latency_record.ok = result.ok;
    latency_record.seconds = result.window_seconds;
    latency_record.output_tuples = result.latency_ms.size();
    latency_record.threads = pool_threads;
    latency_record.p50_seconds = p50 / 1e3;
    latency_record.p99_seconds = p99 / 1e3;
    json.Add(latency_record);
    BenchRecord batch_record;
    batch_record.engine = "WF";
    batch_record.query = std::string("mixed-batch-") + mode;
    batch_record.ok = result.ok;
    batch_record.seconds = result.window_seconds;
    batch_record.output_tuples = result.batch_completed;
    batch_record.threads = pool_threads;
    json.Add(batch_record);
  };
  report("fair", fair_result);
  report("priority", prio_result);
  table.Print(std::cout);

  const double fair_p99 = Percentile(fair_result.latency_ms, 99);
  const double prio_p99 = Percentile(prio_result.latency_ms, 99);
  const double fair_qps =
      fair_result.window_seconds > 0.0
          ? fair_result.batch_completed / fair_result.window_seconds
          : 0.0;
  const double prio_qps =
      prio_result.window_seconds > 0.0
          ? prio_result.batch_completed / prio_result.window_seconds
          : 0.0;
  if (fair_p99 > 0.0 && prio_p99 > 0.0) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\nlatency p99 priority vs fair: %.2fx (lower is better); "
                  "batch throughput ratio: %.2fx\n",
                  prio_p99 / fair_p99,
                  fair_qps > 0.0 ? prio_qps / fair_qps : 0.0);
    std::cout << buf;
  }
  if (flags.Has("json")) json.WriteTo(flags.GetString("json", ""));
  return fair_result.ok && prio_result.ok ? 0 : 1;
}

// --- Zipf cache mix (--zipf). ---

/// One serving pass over the sampled workload plus the runtime's
/// final per-tenant cache counters.
struct ZipfRun {
  std::vector<runtime::QueryReport> reports;
  runtime::TenantStats tenant;
  double wall_seconds = 0.0;
};

int MainZipf(Flags& flags) {
  const double scale = flags.GetDouble("scale", 0.4);
  const double timeout = flags.GetDouble("timeout", 60.0);
  const double zipf_s = flags.GetDouble("zipf_s", 1.0);
  const size_t num_queries =
      static_cast<size_t>(flags.GetInt("queries", 60));
  const uint32_t threads =
      static_cast<uint32_t>(flags.GetInt("threads", 0));
  const uint32_t inflight =
      static_cast<uint32_t>(flags.GetInt("inflight", 4));
  const uint64_t cache_mb =
      static_cast<uint64_t>(flags.GetInt("cache_mb", 256));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  YagoLikeConfig config;
  config.scale = scale;
  config.seed = seed;
  Database db = MakeYagoLike(config);
  Catalog catalog = Catalog::Build(db.store());

  // Zipf(s) over the Table-1 suite ranked in suite order: rank r is
  // drawn proportionally to 1/(r+1)^s, so a few shapes dominate the mix
  // the way hot dashboard queries do.
  const std::vector<std::string> suite = Table1Queries();
  std::vector<double> cumulative(suite.size());
  double total = 0.0;
  for (size_t r = 0; r < suite.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), zipf_s);
    cumulative[r] = total;
  }
  Rng rng(seed * 1000003 + 17);
  std::vector<size_t> workload_index;
  std::vector<std::string> workload;
  workload.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    const double u = rng.NextDouble() * total;
    size_t pick = suite.size() - 1;
    for (size_t r = 0; r < cumulative.size(); ++r) {
      if (u <= cumulative[r]) {
        pick = r;
        break;
      }
    }
    workload_index.push_back(pick);
    workload.push_back(suite[pick]);
  }
  std::vector<size_t> frequency(suite.size(), 0);
  for (size_t pick : workload_index) ++frequency[pick];
  size_t distinct = 0;
  for (size_t f : frequency) distinct += f > 0 ? 1 : 0;

  const uint32_t pool_threads = ThreadPool::ResolveThreads(threads);
  std::cout << "=== Zipf cache mix: " << workload.size()
            << " queries over " << distinct << " distinct Table-1 shapes"
            << " (s=" << zipf_s << "), scale " << scale << " ("
            << db.store().NumTriples() << " triples), " << inflight
            << " in-flight, pool threads " << pool_threads
            << ", cache quota " << cache_mb << " MiB ===\n\n";

  auto run_mode = [&](bool cached) {
    runtime::ServerOptions server_options;
    server_options.runtime.pool_threads = threads;
    server_options.runtime.admission.max_inflight = inflight;
    server_options.runtime.admission.max_queued =
        static_cast<uint32_t>(workload.size());
    if (cached) {
      server_options.runtime.admission.ag_cache_bytes = cache_mb << 20;
    }
    server_options.timeout_seconds = timeout;
    runtime::Server server(db, catalog, server_options);
    ZipfRun run;
    Stopwatch wall;
    run.reports = server.RunBatch(workload);
    run.wall_seconds = wall.ElapsedSeconds();
    run.tenant = server.runtime().stats().tenants.at(0);
    return run;
  };
  const ZipfRun cold = run_mode(/*cached=*/false);
  const ZipfRun cached = run_mode(/*cached=*/true);

  // Correctness gate: the cache must change no result. Row counts are
  // compared per batch position.
  bool rows_match = true;
  for (size_t i = 0; i < workload.size(); ++i) {
    if (cold.reports[i].rows != cached.reports[i].rows ||
        cold.reports[i].outcome != cached.reports[i].outcome) {
      rows_match = false;
      std::cerr << "MISMATCH query " << i << " (suite "
                << workload_index[i] << "): cold rows "
                << cold.reports[i].rows << " vs cached rows "
                << cached.reports[i].rows << "\n";
    }
  }

  /// Sums one side (hits or misses) of a cached run's reports.
  struct PathAggregate {
    uint64_t queries = 0;
    uint64_t rows = 0;
    double phase1 = 0.0;
    double burnback = 0.0;
    double phase2 = 0.0;
    std::vector<double> latencies_ms;
  };
  auto aggregate = [](const std::vector<runtime::QueryReport>& reports,
                      bool hits) {
    PathAggregate agg;
    for (const runtime::QueryReport& report : reports) {
      if (report.cache_hit != hits) continue;
      ++agg.queries;
      agg.rows += report.rows;
      agg.phase1 += report.stats.phase1_seconds;
      agg.burnback += report.stats.burnback_seconds;
      agg.phase2 += report.stats.phase2_seconds;
      agg.latencies_ms.push_back(
          (report.queue_seconds + report.run_seconds) * 1e3);
    }
    return agg;
  };
  const PathAggregate hit_path = aggregate(cached.reports, true);
  const PathAggregate miss_path = aggregate(cached.reports, false);
  const PathAggregate cold_path = aggregate(cold.reports, false);

  JsonResultWriter json;
  char scale_meta[32];
  std::snprintf(scale_meta, sizeof(scale_meta), "%g", config.scale);
  char zipf_meta[32];
  std::snprintf(zipf_meta, sizeof(zipf_meta), "%g", zipf_s);
  json.SetMeta("bench", "bench_concurrent --zipf");
  json.SetMeta("hardware_threads",
               std::to_string(ThreadPool::ResolveThreads(0)));
  json.SetMeta("cpu_features", KernelCpuFeaturesMeta());
  json.SetMeta("pool_threads", std::to_string(pool_threads));
  json.SetMeta("scale", scale_meta);
  json.SetMeta("queries", std::to_string(workload.size()));
  json.SetMeta("distinct_queries", std::to_string(distinct));
  json.SetMeta("zipf_s", zipf_meta);
  json.SetMeta("cache_mb", std::to_string(cache_mb));
  json.SetMeta("inflight", std::to_string(inflight));

  auto add_cell = [&](const std::string& name, const ZipfRun& run,
                      const PathAggregate& agg, bool attach_counters) {
    BenchRecord record;
    record.engine = "WF";
    record.query = name;
    record.ok = rows_match;
    record.seconds = run.wall_seconds;
    record.output_tuples = agg.rows;
    record.ag_pairs = agg.queries;
    record.threads = pool_threads;
    record.phase1_seconds = agg.phase1;
    record.burnback_seconds = agg.burnback;
    record.phase2_seconds = agg.phase2;
    record.p50_seconds = Percentile(agg.latencies_ms, 50) / 1e3;
    record.p99_seconds = Percentile(agg.latencies_ms, 99) / 1e3;
    if (attach_counters) {
      record.cache_hits = run.tenant.cache_hits;
      record.cache_misses = run.tenant.cache_misses;
      record.cache_evictions = run.tenant.cache_evictions;
    }
    json.Add(record);
  };
  // ag_pairs doubles as the cell's query count; the phase columns are
  // sums over that side of the split.
  add_cell("zipf-nocache", cold, cold_path, /*attach_counters=*/false);
  add_cell("zipf-cache", cached, hit_path, /*attach_counters=*/true);
  add_cell("zipf-cache-misspath", cached, miss_path,
           /*attach_counters=*/false);

  TablePrinter table({"mode", "queries", "wall (s)", "q/s", "p50 (ms)",
                      "p99 (ms)", "phase1 (s)", "burnback (s)", "hits",
                      "misses", "evict"});
  auto row = [&](const char* mode, const ZipfRun& run,
                 const PathAggregate& agg, bool counters) {
    table.AddRow(
        {mode, std::to_string(agg.queries),
         TablePrinter::FormatSeconds(run.wall_seconds),
         TablePrinter::FormatSeconds(static_cast<double>(workload.size()) /
                                     run.wall_seconds),
         FormatMs(Percentile(agg.latencies_ms, 50)),
         FormatMs(Percentile(agg.latencies_ms, 99)),
         TablePrinter::FormatSeconds(agg.phase1),
         TablePrinter::FormatSeconds(agg.burnback),
         counters ? std::to_string(run.tenant.cache_hits) : "-",
         counters ? std::to_string(run.tenant.cache_misses) : "-",
         counters ? std::to_string(run.tenant.cache_evictions) : "-"});
  };
  row("nocache", cold, cold_path, false);
  row("cache:hits", cached, hit_path, true);
  row("cache:misses", cached, miss_path, true);
  table.Print(std::cout);

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\nrows identical across modes: %s; cached wall vs cold: "
                "%.2fx; hit-path phase1+burnback: %.6f s over %llu hits\n",
                rows_match ? "yes" : "NO",
                cached.wall_seconds > 0.0
                    ? cold.wall_seconds / cached.wall_seconds
                    : 0.0,
                hit_path.phase1 + hit_path.burnback,
                static_cast<unsigned long long>(hit_path.queries));
  std::cout << buf;
  if (flags.Has("json")) json.WriteTo(flags.GetString("json", ""));
  return rows_match ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.Has("mixed")) return MainMixed(flags);
  if (flags.Has("zipf")) return MainZipf(flags);
  const double scale = flags.GetDouble("scale", 0.4);
  const double timeout = flags.GetDouble("timeout", 60.0);
  const size_t num_queries =
      static_cast<size_t>(flags.GetInt("queries", 20));
  const uint32_t threads =
      static_cast<uint32_t>(flags.GetInt("threads", 0));
  const int64_t row_budget = flags.GetInt("row_budget", 0);
  std::vector<uint32_t> inflight_list =
      ParseIntList(flags.GetString("inflight_list", "1,4,16"));

  YagoLikeConfig config;
  config.scale = scale;
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  Stopwatch build_watch;
  Database db = MakeYagoLike(config);
  Catalog catalog = Catalog::Build(db.store());

  // The workload: the Table-1 suite, cycled to the requested batch size.
  const std::vector<std::string> suite = Table1Queries();
  std::vector<std::string> workload;
  workload.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    workload.push_back(suite[i % suite.size()]);
  }

  const uint32_t pool_threads = ThreadPool::ResolveThreads(threads);
  std::cout << "=== Concurrent serving: " << workload.size()
            << " Table-1 queries, scale " << scale << " ("
            << db.store().NumTriples() << " triples, built in "
            << build_watch.ElapsedMillis() << " ms), pool threads "
            << pool_threads << " ===\n\n";

  JsonResultWriter json;
  char scale_meta[32];
  std::snprintf(scale_meta, sizeof(scale_meta), "%g", config.scale);
  json.SetMeta("bench", "bench_concurrent");
  json.SetMeta("hardware_threads",
               std::to_string(ThreadPool::ResolveThreads(0)));
  json.SetMeta("cpu_features", KernelCpuFeaturesMeta());
  json.SetMeta("pool_threads", std::to_string(pool_threads));
  json.SetMeta("scale", scale_meta);
  json.SetMeta("queries", std::to_string(workload.size()));

  auto add_record = [&](const std::string& mode, const CellResult& cell) {
    BenchRecord record;
    record.engine = "WF";
    record.query = mode;
    record.ok = cell.ok == workload.size();
    record.seconds = cell.wall_seconds;
    record.output_tuples = cell.total_rows;
    record.threads = pool_threads;
    record.p50_seconds = cell.p50_ms / 1e3;
    record.p99_seconds = cell.p99_ms / 1e3;
    json.Add(record);
  };

  TablePrinter table({"mode", "in-flight", "wall (s)", "queries/s",
                      "p50 (ms)", "p99 (ms)", "ok", "rows"});

  // --- Back-to-back baseline: private pool per query, no sharing. ---
  CellResult back;
  {
    std::vector<double> latencies;
    Stopwatch wall;
    for (const std::string& text : workload) {
      auto query = SparqlParser::ParseAndBind(text, db);
      if (!query.ok()) continue;
      auto engine = MakeEngine("WF");
      EngineOptions options;
      options.threads = threads;  // private pool (0 = all cores)
      options.deadline = Deadline::AfterSeconds(timeout);
      CountingSink sink;
      Stopwatch one;
      auto stats = engine->Run(db, catalog, *query, options, &sink);
      latencies.push_back(one.ElapsedSeconds() * 1e3);
      if (stats.ok()) {
        ++back.ok;
        back.total_rows += stats->output_tuples;
      }
    }
    back.wall_seconds = wall.ElapsedSeconds();
    back.qps = static_cast<double>(workload.size()) / back.wall_seconds;
    back.p50_ms = Percentile(latencies, 50);
    back.p99_ms = Percentile(latencies, 99);
    table.AddRow({"backtoback", "1", TablePrinter::FormatSeconds(
                                         back.wall_seconds),
                  TablePrinter::FormatSeconds(back.qps),
                  FormatMs(back.p50_ms), FormatMs(back.p99_ms),
                  std::to_string(back.ok) + "/" +
                      std::to_string(workload.size()),
                  TablePrinter::FormatCount(back.total_rows)});
    add_record("backtoback", back);
  }

  // --- Shared runtime at each in-flight level. ---
  double shared4_qps = 0.0;
  for (uint32_t inflight : inflight_list) {
    runtime::ServerOptions server_options;
    server_options.runtime.pool_threads = threads;
    server_options.runtime.admission.max_inflight = inflight;
    // The whole batch may wait: this bench measures scheduling, not load
    // shedding.
    server_options.runtime.admission.max_queued =
        static_cast<uint32_t>(workload.size());
    server_options.timeout_seconds = timeout;
    server_options.row_budget = row_budget > 0 ? row_budget : -1;
    runtime::Server server(db, catalog, server_options);

    Stopwatch wall;
    const std::vector<runtime::QueryReport> reports =
        server.RunBatch(workload);
    CellResult cell;
    cell.wall_seconds = wall.ElapsedSeconds();
    std::vector<double> latencies;
    for (const runtime::QueryReport& report : reports) {
      latencies.push_back((report.queue_seconds + report.run_seconds) * 1e3);
      if (report.outcome == runtime::QueryOutcome::kCompleted ||
          report.outcome == runtime::QueryOutcome::kBudgetExhausted) {
        ++cell.ok;
        cell.total_rows += report.rows;
      }
    }
    cell.qps = static_cast<double>(workload.size()) / cell.wall_seconds;
    cell.p50_ms = Percentile(latencies, 50);
    cell.p99_ms = Percentile(latencies, 99);
    if (inflight == 4) shared4_qps = cell.qps;
    table.AddRow({"shared", std::to_string(inflight),
                  TablePrinter::FormatSeconds(cell.wall_seconds),
                  TablePrinter::FormatSeconds(cell.qps),
                  FormatMs(cell.p50_ms), FormatMs(cell.p99_ms),
                  std::to_string(cell.ok) + "/" +
                      std::to_string(workload.size()),
                  TablePrinter::FormatCount(cell.total_rows)});
    add_record("shared-x" + std::to_string(inflight), cell);
  }
  table.Print(std::cout);

  if (shared4_qps > 0.0 && back.qps > 0.0) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "\nshared 4-in-flight vs back-to-back throughput: %.2fx\n",
                  shared4_qps / back.qps);
    std::cout << buf
              << "(row counts are identical across modes; on a single-core "
                 "box expect parity)\n";
  }
  if (flags.Has("json")) json.WriteTo(flags.GetString("json", ""));
  return 0;
}
