// Mixed-class serving: weighted scheduling of one runtime's shared pool.
//
// One latency-class query stream vs N continuously re-submitted
// batch-class queries on one runtime::Server, run twice over the same
// YAGO-like graph:
//
//   - fair:     no service classes; every query is "default" and the
//               pool schedules all task-groups with equal weight.
//   - priority: latency weight 16 plus a batch in-flight quota.
//
// Reported per mode: the latency class's p50/p99 end-to-end latency
// (admission queue wait + execution) and batch throughput over the
// latency stream's window. The prioritized run must cut the latency
// class's p99 below the fair baseline while batch throughput stays
// within a few percent (the quota only re-orders batch work, it does not
// drop it). Recorded as BENCH_pr4_priority.json.
//
// Usage: bench_priority [--batch_inflight=16] [--window=5]
//                       [--interval_ms=50] [--latency_weight=16]
//                       [--batch_quota=2] [--scale=0.4] [--threads=0]
//                       [--timeout=60] [--json=<path>]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "benchlib/json_writer.h"
#include "benchlib/stats.h"
#include "catalog/catalog.h"
#include "datagen/yago_like.h"
#include "exec/engine.h"
#include "query/parser.h"
#include "runtime/server.h"
#include "util/flags.h"
#include "util/span_kernels.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace wireframe;

namespace {

std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", ms);
  return buf;
}

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

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
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
  json.SetMeta("bench", "bench_priority");
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
