// Chaos driver: the fault-tolerance acceptance gate, run by the CI
// `chaos` job under ASan+UBSan:
//
//   $ chaos_driver [--seeds=20] [--seed_base=1] [--scale=0.01]
//                  [--store_seed=42] [--verbose]
//
// It stands up a socket server over a deterministic YAGO-like store,
// then sweeps seeded fault schedules (net/fault_injection.h): for each
// seed, a RetryingClient with that seed's schedule armed runs the full
// Table-1 query mix plus a factorized aggregate. The contract checked
// for EVERY query under EVERY schedule:
//
//   - it either completes with rows BIT-IDENTICAL to the in-process
//     RunBatch reference (as sets — emission order is parallel), or
//   - it fails with a TYPED error (kConnectionReset, kFrameCorrupt,
//     kRetryExhausted, kStreamBroken, ...) the caller can branch on;
//   - never a hang (everything is deadline-bounded), never a crash,
//     never a duplicated or missing row, never a wrong aggregate.
//
// Exit code 0 iff every seed upholds the contract.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "datagen/yago_like.h"
#include "net/client.h"
#include "net/fault_injection.h"
#include "net/retry_client.h"
#include "net/server.h"
#include "runtime/server.h"
#include "util/flags.h"

using namespace wireframe;

namespace {

std::vector<std::vector<NodeId>> Sorted(
    std::vector<std::vector<NodeId>> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

bool SameAggregate(const AggregateResult& a, const AggregateResult& b) {
  if (a.kind != b.kind || a.ask != b.ask || a.value.lo != b.value.lo ||
      a.value.hi != b.value.hi ||
      a.value.saturated != b.value.saturated ||
      a.groups.size() != b.groups.size()) {
    return false;
  }
  std::vector<AggregateGroup> ga = a.groups, gb = b.groups;
  auto by_key = [](const AggregateGroup& x, const AggregateGroup& y) {
    return x.key < y.key;
  };
  std::sort(ga.begin(), ga.end(), by_key);
  std::sort(gb.begin(), gb.end(), by_key);
  for (size_t i = 0; i < ga.size(); ++i) {
    if (ga[i].key != gb[i].key || ga[i].value.lo != gb[i].value.lo ||
        ga[i].value.hi != gb[i].value.hi) {
      return false;
    }
  }
  return true;
}

/// The failure modes a faulted query is ALLOWED to end in. Anything
/// else (untyped kInternal, a wrong-row completion, a hang) breaks the
/// chaos contract.
bool IsTypedFailure(const Status& status) {
  switch (status.code()) {
    case StatusCode::kConnectionRefused:
    case StatusCode::kConnectionReset:
    case StatusCode::kFrameCorrupt:
    case StatusCode::kOverloaded:
    case StatusCode::kRetryExhausted:
    case StatusCode::kStreamBroken:
    case StatusCode::kTimedOut:
      return true;
    default:
      return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int seeds = static_cast<int>(flags.GetInt("seeds", 20));
  const uint64_t seed_base =
      static_cast<uint64_t>(flags.GetInt("seed_base", 1));
  const bool verbose = flags.GetBool("verbose", false);

  YagoLikeConfig config;
  config.scale = flags.GetDouble("scale", 0.01);
  config.seed = static_cast<uint64_t>(flags.GetInt("store_seed", 42));
  std::cout << "chaos: building store (scale " << config.scale << ", seed "
            << config.seed << ")...\n";
  Database db = MakeYagoLike(config);
  Catalog catalog = Catalog::Build(db.store());

  // In-process reference: the ground truth every faulted stream must
  // reproduce bit-exactly (or fail typed trying).
  std::vector<std::string> queries = Table1Queries();
  queries.push_back(
      "select (count(*) as ?n) where { ?x livesIn ?c . "
      "?c isLocatedIn ?k . }");
  runtime::Server reference(db, catalog);
  std::vector<CollectingSink> sinks(queries.size());
  std::vector<Sink*> sink_ptrs;
  for (auto& sink : sinks) sink_ptrs.push_back(&sink);
  const std::vector<runtime::QueryReport> expect =
      reference.RunBatch(queries, &sink_ptrs);
  std::vector<std::vector<std::vector<NodeId>>> expect_rows;
  for (auto& sink : sinks) expect_rows.push_back(Sorted(sink.rows()));

  // The server under attack. Tight liveness bounds so blackholed bytes
  // cost milliseconds, not the default multi-second timeouts — the
  // sweep must stay fast enough for a sanitizer CI job.
  runtime::Server victim(db, catalog);
  net::SocketServerOptions server_options;
  server_options.read_timeout_ms = 2'000;
  server_options.idle_timeout_ms = 2'000;
  // A write-blackhole can swallow the HELLO outright; without this the
  // server pins each such connect for the default 10 s handshake bound.
  server_options.hello_timeout_ms = 2'000;
  net::SocketServer server(&victim, server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::cerr << started.ToString() << "\n";
    return 2;
  }

  uint64_t completed = 0, typed_failures = 0, violations = 0;
  uint64_t reconnects = 0, retries = 0, faults_fired = 0;
  for (int s = 0; s < seeds; ++s) {
    const uint64_t seed = seed_base + static_cast<uint64_t>(s);
    const net::FaultSchedule schedule = net::FaultSchedule::Random(seed);
    net::FaultInjector injector(schedule);
    net::ClientOptions client_options;
    client_options.fault_injector = &injector;
    client_options.io_timeout_ms = 5'000;
    client_options.ping_interval_ms = 200;
    client_options.ping_timeout_ms = 1'500;
    // Bounds the swallowed-QUERY livelock: the server answers our pings
    // forever while waiting for a query it never received, so only a
    // whole-query deadline can force the retry (seed 13 finds this).
    client_options.query_timeout_ms = 8'000;
    net::RetryPolicy policy;
    policy.max_attempts = 6;
    policy.base_backoff_ms = 2;
    policy.max_backoff_ms = 50;
    policy.retry_budget_seconds = 30.0;
    policy.seed = seed;
    net::RetryingClient client(server.address().ToString(),
                               client_options, policy);
    if (verbose) {
      std::cout << "seed " << seed << ": " << schedule.ToString() << "\n";
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      const auto start = std::chrono::steady_clock::now();
      auto result = client.Run(queries[i]);
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start);
      // Deadline-bounded everywhere: anything this slow counts as a
      // hang even if it eventually returned.
      if (elapsed.count() > 60'000) {
        ++violations;
        std::cout << "  VIOLATION seed " << seed << " query " << i
                  << ": took " << elapsed.count() << " ms\n";
        continue;
      }
      if (!result.ok()) {
        if (IsTypedFailure(result.status())) {
          ++typed_failures;
          if (verbose) {
            std::cout << "  typed: query " << i << " "
                      << result.status().ToString() << "\n";
          }
        } else {
          ++violations;
          std::cout << "  VIOLATION seed " << seed << " query " << i
                    << ": untyped failure "
                    << result.status().ToString() << "\n";
        }
        continue;
      }
      // A delivered result must be indistinguishable from the
      // fault-free reference: same outcome, same rows (no duplicates,
      // no gaps), same aggregate.
      bool identical =
          result->report.outcome == expect[i].outcome &&
          Sorted(result->rows.ToVectors()) == expect_rows[i];
      if (identical && expect[i].has_aggregate) {
        identical = result->report.has_aggregate &&
                    SameAggregate(result->report.aggregate,
                                  expect[i].aggregate);
      }
      if (identical) {
        ++completed;
      } else {
        ++violations;
        std::cout << "  VIOLATION seed " << seed << " query " << i
                  << ": completed with WRONG result ("
                  << result->rows.size() << " rows vs "
                  << expect_rows[i].size() << ")\n";
      }
    }
    reconnects += client.stats().connects > 0
                      ? client.stats().connects - 1
                      : 0;
    retries += client.stats().transport_retries +
               client.stats().rejection_retries;
    faults_fired += injector.counters().total();
    (void)client.Goodbye();
  }
  server.Stop();

  const uint64_t total = static_cast<uint64_t>(seeds) * queries.size();
  std::cout << "chaos: " << total << " queries over " << seeds
            << " seeds — " << completed << " bit-identical, "
            << typed_failures << " typed failures, " << violations
            << " violations (" << faults_fired << " faults fired, "
            << reconnects << " reconnects, " << retries << " retries)\n";
  if (violations == 0 && completed > 0) {
    std::cout << "chaos: contract holds\n";
    return 0;
  }
  std::cout << "chaos: CONTRACT BROKEN\n";
  return 1;
}
