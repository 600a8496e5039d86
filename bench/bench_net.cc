// Socket front-end overhead: the Table-1 mix (plus one factorized
// aggregate) served over a loopback net::SocketServer vs straight
// in-process runtime::Server submission.
//
// Both transports drive the SAME runtime::Server instance, so the diff
// is the wire path alone: frame encode/decode, the bounded send queue,
// and two copies across the kernel loopback. Reported per transport:
// wall clock, queries/s, p50/p99 round-trip latency, and the row total
// (which must be identical — the bench exits nonzero on a mismatch).
//
// Usage: bench_net [--transport=both|socket|in-process] [--retry]
//                  [--scale=0.2] [--seed=42] [--iters=3] [--timeout=60]
//                  [--listen=127.0.0.1:0]      # or unix:/tmp/wf.sock
//                  [--rows_per_batch=1024] [--send_buffer_kb=1024]
//                  [--threads=0] [--json=<path>]
//
// --retry adds a third pass driving the SAME socket server through
// net::RetryingClient with no faults armed, so the recorded
// `socket-retry` cell is the pure bookkeeping overhead of the retry
// layer (budget arithmetic, the counting batch hook) — it must sit
// within noise of the plain `socket` cell. meta.retry joins the
// bench_diff comparability keys so retry recordings only diff against
// retry recordings.
//
// The CI bench-smoke leg runs this tiny (--scale=0.05 --iters=2) and
// self-diffs the JSON with scripts/bench_diff.py; meta.transport is a
// comparability key there, so socket recordings never get diffed
// against in-process ones by accident.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "benchlib/harness.h"
#include "benchlib/stats.h"
#include "catalog/catalog.h"
#include "datagen/yago_like.h"
#include "net/client.h"
#include "net/retry_client.h"
#include "net/server.h"
#include "runtime/server.h"
#include "util/flags.h"
#include "util/span_kernels.h"
#include "util/table_printer.h"
#include "util/timer.h"

using namespace wireframe;

namespace {

std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", ms);
  return buf;
}

struct TransportResult {
  std::vector<double> latencies_ms;    // one per query run, end to end
  std::vector<uint64_t> rows_by_slot;  // first pass, for the cross-check
  uint64_t total_rows = 0;
  uint64_t ok = 0;
  double wall_seconds = 0.0;
  /// Engine phase seconds summed over every run: from the session in
  /// process, from the decoded REPORT frame over the socket.
  double phase1_seconds = 0.0;
  double burnback_seconds = 0.0;
  double freeze_seconds = 0.0;
  double phase2_seconds = 0.0;

  void AddPhases(const EngineStats& stats) {
    phase1_seconds += stats.phase1_seconds;
    burnback_seconds += stats.burnback_seconds;
    freeze_seconds += stats.freeze_seconds;
    phase2_seconds += stats.phase2_seconds;
  }
};

/// Closed-loop in-process pass: Submit + Wait per query, like a caller
/// embedding the runtime directly.
TransportResult RunInProcess(runtime::Server& server,
                             const std::vector<std::string>& workload,
                             int iters) {
  TransportResult result;
  result.rows_by_slot.assign(workload.size(), 0);
  Stopwatch wall;
  for (int it = 0; it < iters; ++it) {
    for (size_t i = 0; i < workload.size(); ++i) {
      CountingSink sink;
      Stopwatch one;
      auto session = server.Submit(workload[i], &sink);
      if (!session.ok()) {
        std::cerr << "in-process submit: " << session.status().ToString()
                  << "\n";
        result.latencies_ms.push_back(one.ElapsedMillis());
        continue;
      }
      (*session)->Wait();
      result.latencies_ms.push_back(one.ElapsedMillis());
      result.AddPhases((*session)->stats());
      if ((*session)->outcome() == runtime::QueryOutcome::kCompleted) {
        ++result.ok;
        result.total_rows += sink.count();
        if (it == 0) result.rows_by_slot[i] = sink.count();
      }
    }
  }
  result.wall_seconds = wall.ElapsedSeconds();
  return result;
}

/// Closed-loop socket pass: one blocking client on one connection, the
/// whole stream buffered client-side like net_e2e_driver does.
Result<TransportResult> RunSocket(const std::string& address,
                                  const std::vector<std::string>& workload,
                                  int iters) {
  WF_ASSIGN_OR_RETURN(std::unique_ptr<net::Client> client,
                      net::Client::Connect(address));
  TransportResult result;
  result.rows_by_slot.assign(workload.size(), 0);
  Stopwatch wall;
  for (int it = 0; it < iters; ++it) {
    for (size_t i = 0; i < workload.size(); ++i) {
      Stopwatch one;
      auto streamed = client->Run(workload[i]);
      result.latencies_ms.push_back(one.ElapsedMillis());
      if (!streamed.ok()) return streamed.status();  // wire fault: abort
      result.AddPhases(streamed->report.stats);
      if (streamed->report.outcome == runtime::QueryOutcome::kCompleted) {
        ++result.ok;
        const uint64_t rows = streamed->report.has_aggregate
                                  ? streamed->report.rows
                                  : streamed->rows.size();
        result.total_rows += rows;
        if (it == 0) result.rows_by_slot[i] = rows;
      }
    }
  }
  result.wall_seconds = wall.ElapsedSeconds();
  WF_RETURN_NOT_OK(client->Goodbye());
  return result;
}

/// Closed-loop retrying-client pass: same workload, same server, but
/// through the RetryingClient wrapper with nothing to retry — what the
/// retry layer costs when the network behaves.
Result<TransportResult> RunSocketRetry(
    const std::string& address,
    const std::vector<std::string>& workload, int iters) {
  net::RetryingClient client(address);
  TransportResult result;
  result.rows_by_slot.assign(workload.size(), 0);
  Stopwatch wall;
  for (int it = 0; it < iters; ++it) {
    for (size_t i = 0; i < workload.size(); ++i) {
      Stopwatch one;
      auto streamed = client.Run(workload[i]);
      result.latencies_ms.push_back(one.ElapsedMillis());
      if (!streamed.ok()) return streamed.status();  // wire fault: abort
      result.AddPhases(streamed->report.stats);
      if (streamed->report.outcome == runtime::QueryOutcome::kCompleted) {
        ++result.ok;
        const uint64_t rows = streamed->report.has_aggregate
                                  ? streamed->report.rows
                                  : streamed->rows.size();
        result.total_rows += rows;
        if (it == 0) result.rows_by_slot[i] = rows;
      }
    }
  }
  result.wall_seconds = wall.ElapsedSeconds();
  // The fault-free path must never have burned a retry.
  if (client.stats().transport_retries != 0 ||
      client.stats().rejection_retries != 0 ||
      client.stats().connect_failures != 0) {
    return Status::Internal("retry layer retried on a clean network");
  }
  WF_RETURN_NOT_OK(client.Goodbye());
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string transport = flags.GetString("transport", "both");
  const bool want_socket = transport == "both" || transport == "socket";
  const bool want_inproc = transport == "both" || transport == "in-process";
  const bool want_retry = flags.GetBool("retry", false);
  if (!want_socket && !want_inproc) {
    std::cerr << "unknown --transport=" << transport
              << " (both|socket|in-process)\n";
    return 2;
  }
  if (want_retry && !want_socket) {
    std::cerr << "--retry needs the socket transport\n";
    return 2;
  }
  const double scale = flags.GetDouble("scale", 0.2);
  const double timeout = flags.GetDouble("timeout", 60.0);
  const int iters = static_cast<int>(flags.GetInt("iters", 3));
  const uint32_t threads = static_cast<uint32_t>(flags.GetInt("threads", 0));

  YagoLikeConfig config;
  config.scale = scale;
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  Database db = MakeYagoLike(config);
  Catalog catalog = Catalog::Build(db.store());

  // Table-1 plus one aggregate, so the AGGREGATE frame is on the path.
  std::vector<std::string> workload = Table1Queries();
  workload.push_back(
      "select (count(*) as ?n) where { ?x livesIn ?c . "
      "?c isLocatedIn ?k . }");

  runtime::ServerOptions server_options;
  server_options.runtime.pool_threads = threads;
  server_options.timeout_seconds = timeout;
  runtime::Server server(db, catalog, server_options);

  net::SocketServerOptions net_options;
  net_options.listen = flags.GetString("listen", "127.0.0.1:0");
  net_options.rows_per_batch =
      static_cast<uint32_t>(flags.GetInt("rows_per_batch", 1024));
  net_options.send_buffer_bytes =
      static_cast<uint64_t>(flags.GetInt("send_buffer_kb", 1024)) << 10;
  net::SocketServer net_server(&server, net_options);
  if (want_socket) {
    Status started = net_server.Start();
    if (!started.ok()) {
      std::cerr << started.ToString() << "\n";
      return 1;
    }
  }

  const uint32_t pool_threads = ThreadPool::ResolveThreads(threads);
  std::cout << "=== Socket vs in-process: " << workload.size()
            << " queries x " << iters << " pass(es), scale " << scale
            << " (" << db.store().NumTriples() << " triples), pool threads "
            << pool_threads;
  if (want_socket) {
    std::cout << ", listening on " << net_server.address().ToString();
  }
  std::cout << " ===\n\n";

  TransportResult inproc;
  TransportResult socket_side;
  TransportResult retry_side;
  if (want_inproc) inproc = RunInProcess(server, workload, iters);
  if (want_socket) {
    auto streamed =
        RunSocket(net_server.address().ToString(), workload, iters);
    if (!streamed.ok()) {
      std::cerr << streamed.status().ToString() << "\n";
      net_server.Stop();
      return 1;
    }
    socket_side = std::move(streamed).value();
  }
  if (want_retry) {
    auto streamed =
        RunSocketRetry(net_server.address().ToString(), workload, iters);
    if (!streamed.ok()) {
      std::cerr << streamed.status().ToString() << "\n";
      net_server.Stop();
      return 1;
    }
    retry_side = std::move(streamed).value();
  }
  if (want_socket) net_server.Stop();

  // Correctness gate: neither the wire nor the retry wrapper may change
  // any result.
  bool rows_match = true;
  for (size_t i = 0; i < workload.size(); ++i) {
    if (want_socket && want_inproc &&
        inproc.rows_by_slot[i] != socket_side.rows_by_slot[i]) {
      rows_match = false;
      std::cerr << "MISMATCH query " << i << ": in-process rows "
                << inproc.rows_by_slot[i] << " vs socket rows "
                << socket_side.rows_by_slot[i] << "\n";
    }
    if (want_retry &&
        socket_side.rows_by_slot[i] != retry_side.rows_by_slot[i]) {
      rows_match = false;
      std::cerr << "MISMATCH query " << i << ": socket rows "
                << socket_side.rows_by_slot[i] << " vs socket-retry rows "
                << retry_side.rows_by_slot[i] << "\n";
    }
  }

  JsonResultWriter json;
  char scale_meta[32];
  std::snprintf(scale_meta, sizeof(scale_meta), "%g", config.scale);
  json.SetMeta("bench", "bench_net");
  json.SetMeta("transport", transport);
  json.SetMeta("retry", want_retry ? "on" : "off");
  json.SetMeta("hardware_threads",
               std::to_string(ThreadPool::ResolveThreads(0)));
  json.SetMeta("cpu_features", KernelCpuFeaturesMeta());
  json.SetMeta("pool_threads", std::to_string(pool_threads));
  json.SetMeta("scale", scale_meta);
  json.SetMeta("iters", std::to_string(iters));
  json.SetMeta("rows_per_batch",
               std::to_string(net_options.rows_per_batch));

  TablePrinter table({"transport", "queries", "wall (s)", "q/s",
                      "p50 (ms)", "p99 (ms)", "ok", "rows"});
  const size_t runs = workload.size() * static_cast<size_t>(iters);
  auto report = [&](const std::string& name, const TransportResult& r) {
    const double qps =
        r.wall_seconds > 0.0
            ? static_cast<double>(runs) / r.wall_seconds
            : 0.0;
    const double p50 = Percentile(r.latencies_ms, 50);
    const double p99 = Percentile(r.latencies_ms, 99);
    table.AddRow({name, std::to_string(runs),
                  TablePrinter::FormatSeconds(r.wall_seconds),
                  TablePrinter::FormatSeconds(qps), FormatMs(p50),
                  FormatMs(p99),
                  std::to_string(r.ok) + "/" + std::to_string(runs),
                  TablePrinter::FormatCount(r.total_rows)});
    BenchRecord record;
    record.engine = "WF";
    record.query = name + ":table1-mix";
    record.ok = rows_match && r.ok == runs;
    record.seconds = r.wall_seconds;
    record.output_tuples = r.total_rows;
    record.threads = pool_threads;
    record.p50_seconds = p50 / 1e3;
    record.p99_seconds = p99 / 1e3;
    record.phase1_seconds = r.phase1_seconds;
    record.burnback_seconds = r.burnback_seconds;
    record.freeze_seconds = r.freeze_seconds;
    record.phase2_seconds = r.phase2_seconds;
    json.Add(record);
  };
  if (want_inproc) report("in-process", inproc);
  if (want_socket) report("socket", socket_side);
  if (want_retry) report("socket-retry", retry_side);
  table.Print(std::cout);

  if (want_socket && want_inproc && inproc.wall_seconds > 0.0 &&
      socket_side.wall_seconds > 0.0) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\nsocket wall vs in-process: %.2fx; rows identical: %s\n",
                  socket_side.wall_seconds / inproc.wall_seconds,
                  rows_match ? "yes" : "NO");
    std::cout << buf;
  }
  if (want_retry && socket_side.wall_seconds > 0.0 &&
      retry_side.wall_seconds > 0.0) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "socket-retry wall vs socket: %.2fx (fault-free retry "
                  "overhead)\n",
                  retry_side.wall_seconds / socket_side.wall_seconds);
    std::cout << buf;
  }
  if (flags.Has("json")) json.WriteTo(flags.GetString("json", ""));
  return rows_match ? 0 : 1;
}
