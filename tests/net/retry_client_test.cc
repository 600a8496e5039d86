// RetryingClient semantics: reconnect with decorrelated backoff,
// deadline-aware retry budgets, the replay-safety rule (transparent
// retry ONLY before the first delivered batch), typed kRetryExhausted /
// kStreamBroken, overload retries that honor the server's retry-after
// hint — plus the brownout regression: past the queue watermark the
// lowest-weight tenant is shed typed while the highest-weight tenant's
// work still completes. SMOKE: runs under the TSan job too.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "datagen/synthetic.h"
#include "datagen/yago_like.h"
#include "net/client.h"
#include "net/fault_injection.h"
#include "net/retry_client.h"
#include "net/server.h"
#include "runtime/server.h"

namespace wireframe {
namespace net {
namespace {

std::vector<std::vector<NodeId>> Sorted(
    std::vector<std::vector<NodeId>> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

RetryPolicy FastPolicy() {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 10;
  policy.retry_budget_seconds = 10.0;
  policy.seed = 7;
  return policy;
}

class RetryClientTest : public ::testing::Test {
 protected:
  RetryClientTest()
      : db_(MakeYagoLike({.scale = 0.01, .seed = 42})),
        catalog_(Catalog::Build(db_.store())) {
    server_ = std::make_unique<runtime::Server>(db_, catalog_);
    net_ = std::make_unique<SocketServer>(server_.get());
    Status started = net_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    query_ = Table1Queries()[7];
    auto clean = Client::Connect(Address());
    EXPECT_TRUE(clean.ok()) << clean.status().ToString();
    auto baseline = (*clean)->Run(query_);
    EXPECT_TRUE(baseline.ok()) << baseline.status().ToString();
    baseline_rows_ = Sorted(baseline->rows.ToVectors());
    EXPECT_TRUE((*clean)->Goodbye().ok());
  }

  std::string Address() const { return net_->address().ToString(); }

  Database db_;
  Catalog catalog_;
  std::unique_ptr<runtime::Server> server_;
  std::unique_ptr<SocketServer> net_;
  std::string query_;
  std::vector<std::vector<NodeId>> baseline_rows_;
};

TEST_F(RetryClientTest, FaultFreeRunsMatchThePlainClient) {
  RetryingClient retry(Address(), {}, FastPolicy());
  auto result = retry.Run(query_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Sorted(result->rows.ToVectors()), baseline_rows_);
  EXPECT_EQ(retry.stats().connects, 1u);
  EXPECT_EQ(retry.stats().transport_retries, 0u);
  EXPECT_EQ(retry.stats().rejection_retries, 0u);
  EXPECT_EQ(retry.stats().backoff_ms_total, 0u);
  EXPECT_TRUE(retry.Ping().ok());
  auto status = retry.QueryStatus();
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_GT(status->max_inflight, 0u);
  EXPECT_EQ(status->overloaded, 0u);
  EXPECT_TRUE(retry.Goodbye().ok());
}

TEST_F(RetryClientTest, ConnectionRefusedExhaustsTyped) {
  // Grab a port nothing listens on: bind, read it back, close.
  std::string dead_address;
  {
    auto probe = SocketAddress::Parse("127.0.0.1:0");
    ASSERT_TRUE(probe.ok());
    auto listener = Socket::Listen(*probe, 1);
    ASSERT_TRUE(listener.ok());
    auto port = listener->BoundPort();
    ASSERT_TRUE(port.ok());
    dead_address = "127.0.0.1:" + std::to_string(*port);
  }
  RetryingClient retry(dead_address, {}, FastPolicy());
  auto result = retry.Run(query_);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsRetryExhausted())
      << result.status().ToString();
  // The exhausted status names the underlying refusal.
  EXPECT_NE(result.status().message().find("refused"), std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(retry.stats().connect_failures, 4u);  // max_attempts
  EXPECT_GT(retry.stats().backoff_ms_total, 0u);
}

TEST_F(RetryClientTest, TransparentRetryAfterPreDeliveryReset) {
  // The first QUERY frame dies in a hard RST before any result was
  // delivered — exactly the replay-safe case. The client must
  // reconnect, rerun, and return rows bit-identical to the baseline,
  // with the retry visible only in the stats.
  FaultSchedule schedule;
  schedule.actions.push_back({FaultOp::kReset, FaultDirection::kWrite,
                              /*at_frame=*/1, /*at_byte=*/0,
                              /*delay_ms=*/0, /*bit_mask=*/1,
                              /*span_bytes=*/0});
  FaultInjector injector(schedule);
  ClientOptions options;
  options.fault_injector = &injector;
  RetryingClient retry(Address(), options, FastPolicy());
  auto result = retry.Run(query_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Sorted(result->rows.ToVectors()), baseline_rows_);
  EXPECT_EQ(retry.stats().transport_retries, 1u);
  EXPECT_EQ(retry.stats().connects, 2u);
  EXPECT_TRUE(injector.Drained());
  EXPECT_TRUE(retry.Goodbye().ok());
}

TEST_F(RetryClientTest, SwallowedQueryLivelockIsBoundedAndRetried) {
  // A write-blackhole swallows the ENTIRE first QUERY frame: the server
  // never sees a query and sits in its session loop answering our
  // pings — every PONG proves the peer is alive, none proves the query
  // is progressing, so without a whole-query deadline both sides idle
  // forever (chaos seed 13 found exactly this livelock). The deadline
  // must convert it into a typed kTimedOut, and the retrying client
  // must then replay onto a fresh stream and match the baseline.
  FaultSchedule schedule;
  schedule.actions.push_back({FaultOp::kBlackhole,
                              FaultDirection::kWrite,
                              /*at_frame=*/1, /*at_byte=*/0,
                              /*delay_ms=*/400, /*bit_mask=*/1,
                              /*span_bytes=*/0});
  FaultInjector injector(schedule);
  ClientOptions options;
  options.fault_injector = &injector;
  options.ping_interval_ms = 50;
  options.ping_timeout_ms = 2'000;
  options.query_timeout_ms = 700;
  RetryingClient retry(Address(), options, FastPolicy());
  const auto start = std::chrono::steady_clock::now();
  auto result = retry.Run(query_);
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Sorted(result->rows.ToVectors()), baseline_rows_);
  EXPECT_GE(retry.stats().transport_retries, 1u);
  EXPECT_GE(retry.stats().connects, 2u);
  EXPECT_GE(injector.counters().blackholes, 1u);
  // Bounded end to end: deadline + backoff + rerun, nowhere near a
  // hang.
  EXPECT_LT(elapsed.count(), 10'000);
  EXPECT_TRUE(retry.Goodbye().ok());
}

TEST_F(RetryClientTest, PostDeliveryBreakSurfacesAsStreamBroken) {
  // The connection dies AFTER batches reached the caller's hook: a
  // transparent rerun could deliver duplicates, so the typed
  // kStreamBroken must surface instead — and no retry may happen.
  RetryingClient retry(Address(), {}, FastPolicy());
  uint64_t batches = 0;
  auto result = retry.Run(query_, [&](const RowBatchFrame&) {
    if (batches++ == 0) retry.client()->socket().Reset();
  });
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsStreamBroken())
      << result.status().ToString();
  EXPECT_EQ(retry.stats().transport_retries, 0u);
  EXPECT_GE(batches, 1u);
}

TEST_F(RetryClientTest, RetryBudgetDeadlineBeatsAttemptCount) {
  RetryPolicy policy = FastPolicy();
  policy.max_attempts = 1'000'000;
  policy.base_backoff_ms = 20;
  policy.max_backoff_ms = 50;
  policy.retry_budget_seconds = 0.2;
  std::string dead_address;
  {
    auto probe = SocketAddress::Parse("127.0.0.1:0");
    ASSERT_TRUE(probe.ok());
    auto listener = Socket::Listen(*probe, 1);
    ASSERT_TRUE(listener.ok());
    auto port = listener->BoundPort();
    ASSERT_TRUE(port.ok());
    dead_address = "127.0.0.1:" + std::to_string(*port);
  }
  RetryingClient retry(dead_address, {}, policy);
  const auto start = std::chrono::steady_clock::now();
  auto result = retry.Run(query_);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsRetryExhausted())
      << result.status().ToString();
  // The deadline, not the (absurd) attempt count, ended the loop —
  // generously bounded for slow CI machines.
  EXPECT_LT(elapsed.count(), 5'000);
  EXPECT_LT(retry.stats().connect_failures, 1'000u);
}

/// Brownout fixture: single-slot runtime with a queue watermark of 1
/// over a gold (weight 8) / bronze (weight 1) tenant pair, behind the
/// socket front-end, with a slow blowup query to jam the slot.
class BrownoutNetTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kRetryAfterMs = 77;

  BrownoutNetTest()
      : db_(MakeChainBlowupGraph(300, 300, /*noise=*/10)),
        catalog_(Catalog::Build(db_.store())) {
    runtime::ServerOptions options;
    options.runtime.admission.max_inflight = 1;
    options.runtime.admission.max_queued = 8;
    options.runtime.admission.brownout_queue_watermark = 1;
    options.runtime.admission.brownout_retry_after_ms = kRetryAfterMs;
    runtime::TenantSpec gold;
    gold.name = "gold";
    gold.weight = 8;
    runtime::TenantSpec bronze;
    bronze.name = "bronze";
    bronze.weight = 1;
    options.runtime.admission.tenants = {gold, bronze};
    options.default_service_class = "gold";
    server_ = std::make_unique<runtime::Server>(db_, catalog_, options);
    SocketServerOptions net_options;
    net_options.send_buffer_bytes = 32u << 10;
    net_options.kernel_send_buffer_bytes = 16 << 10;
    net_options.rows_per_batch = 128;
    net_ = std::make_unique<SocketServer>(server_.get(), net_options);
    Status started = net_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  std::unique_ptr<Client> Connect(const std::string& tenant) {
    ClientOptions options;
    options.service_class = tenant;
    options.recv_buffer_bytes = 8 << 10;
    auto client = Client::Connect(net_->address().ToString(), options);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  const std::string kBlowup =
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }";

  Database db_;
  Catalog catalog_;
  std::unique_ptr<runtime::Server> server_;
  std::unique_ptr<SocketServer> net_;
};

TEST_F(BrownoutNetTest, LowestWeightShedsTypedWhileGoldCompletes) {
  // Gold connection A jams the single slot (slow reader). From inside
  // its first batch — the slot is guaranteed busy — gold connection B
  // queues a query (depth hits the watermark) and bronze then submits
  // into the brownout band: bronze must shed typed kOverloaded with the
  // configured retry-after hint; gold B must stay queued and complete.
  std::unique_ptr<Client> jam = Connect("gold");
  Status probe_status = Status::OK();
  runtime::QueryReport bronze_report;
  bool bronze_overloaded_status_seen = false;
  uint32_t status_retry_after = 0;
  std::thread queued_gold;
  Result<QueryResult> gold_result = Status::Internal("never ran");
  bool probed = false;
  auto jam_result = jam->Run(kBlowup, [&](const RowBatchFrame&) {
    if (probed) return;
    probed = true;
    // Gold B occupies the queue up to the watermark.
    queued_gold = std::thread([&] {
      std::unique_ptr<Client> gold = Connect("gold");
      gold_result = gold->Run(kBlowup);
      (void)gold->Goodbye();
    });
    // Wait until the runtime reports one queued query.
    for (int i = 0; i < 1000; ++i) {
      const runtime::RuntimeStats stats = server_->runtime().stats();
      uint32_t queued = 0;
      for (const auto& tenant : stats.tenants) queued += tenant.queued;
      if (queued >= 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    // Bronze submits into the brownout band.
    std::unique_ptr<Client> bronze = Connect("bronze");
    auto rejected = bronze->Run(kBlowup);
    if (!rejected.ok()) {
      probe_status = rejected.status();
      return;
    }
    bronze_report = rejected->report;
    // The STATUS snapshot also flags the overload, typed for pollers.
    auto status = bronze->QueryStatus();
    if (status.ok()) {
      bronze_overloaded_status_seen = status->overloaded != 0;
      status_retry_after = status->retry_after_ms;
    }
    probe_status = bronze->Goodbye();
  });
  ASSERT_TRUE(jam_result.ok()) << jam_result.status().ToString();
  queued_gold.join();
  ASSERT_TRUE(probe_status.ok()) << probe_status.ToString();
  // Bronze: typed kOverloaded rejection carrying the retry-after hint.
  EXPECT_FALSE(bronze_report.admitted);
  EXPECT_TRUE(bronze_report.status.IsOverloaded())
      << bronze_report.status.ToString();
  EXPECT_EQ(bronze_report.retry_after_ms, kRetryAfterMs);
  EXPECT_TRUE(bronze_overloaded_status_seen);
  EXPECT_EQ(status_retry_after, kRetryAfterMs);
  // Gold: the jamming query AND the queued query both completed — the
  // highest-weight tenant was never shed.
  EXPECT_EQ(jam_result->report.outcome, runtime::QueryOutcome::kCompleted);
  ASSERT_TRUE(gold_result.ok()) << gold_result.status().ToString();
  EXPECT_EQ(gold_result->report.outcome,
            runtime::QueryOutcome::kCompleted);
  // And the brownout shows up in the runtime's tenant stats.
  uint64_t browned = 0;
  for (const auto& tenant : server_->runtime().stats().tenants) {
    browned += tenant.brownout_rejected;
  }
  EXPECT_GE(browned, 1u);
  EXPECT_TRUE(jam->Goodbye().ok());
}

TEST_F(BrownoutNetTest, RetryingClientHonorsRetryAfterThenExhausts) {
  // Bronze behind a RetryingClient while the slot stays jammed: every
  // attempt sheds, each backoff is floored at the server's retry-after
  // hint, and the final status is a typed kRetryExhausted naming the
  // overload.
  std::unique_ptr<Client> jam = Connect("gold");
  Status probe_status = Status::OK();
  uint64_t rejection_retries = 0;
  uint64_t backoff_ms = 0;
  Status bronze_status = Status::OK();
  std::thread filler_thread;  // joined AFTER the jam drains (it is
                              // queued behind the jam's single slot)
  bool probed = false;
  auto jam_result = jam->Run(kBlowup, [&](const RowBatchFrame&) {
    if (probed) return;
    probed = true;
    // One gold query in the queue puts the depth at the watermark.
    filler_thread = std::thread([this] {
      std::unique_ptr<Client> gold = Connect("gold");
      QueryFrame filler;
      filler.sparql = kBlowup;
      filler.row_budget = 1;
      (void)gold->Run(filler);
      (void)gold->Goodbye();
    });
    for (int i = 0; i < 1000; ++i) {
      const runtime::RuntimeStats stats = server_->runtime().stats();
      uint32_t queued = 0;
      for (const auto& tenant : stats.tenants) queued += tenant.queued;
      if (queued >= 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ClientOptions options;
    options.service_class = "bronze";
    RetryPolicy policy;
    policy.max_attempts = 3;
    policy.base_backoff_ms = 1;
    policy.max_backoff_ms = 5;
    policy.retry_budget_seconds = 10.0;
    RetryingClient bronze(net_->address().ToString(), options, policy);
    auto result = bronze.Run(kBlowup);
    bronze_status = result.ok() ? Status::OK() : result.status();
    rejection_retries = bronze.stats().rejection_retries;
    backoff_ms = bronze.stats().backoff_ms_total;
    probe_status = bronze.Goodbye();
  });
  ASSERT_TRUE(jam_result.ok()) << jam_result.status().ToString();
  filler_thread.join();
  ASSERT_TRUE(probe_status.ok()) << probe_status.ToString();
  ASSERT_FALSE(bronze_status.ok());
  EXPECT_TRUE(bronze_status.IsRetryExhausted())
      << bronze_status.ToString();
  EXPECT_NE(bronze_status.message().find("overloaded"), std::string::npos)
      << bronze_status.ToString();
  EXPECT_EQ(rejection_retries, 2u);  // attempts 2 and 3 were retries
  // Each retry slept at least the server's hint.
  EXPECT_GE(backoff_ms, 2u * kRetryAfterMs);
  EXPECT_TRUE(jam->Goodbye().ok());
}

/// Liveness: server-side idle reaping vs client pings.
class LivenessTest : public ::testing::Test {
 protected:
  LivenessTest()
      : db_(MakeYagoLike({.scale = 0.01, .seed = 42})),
        catalog_(Catalog::Build(db_.store())) {
    server_ = std::make_unique<runtime::Server>(db_, catalog_);
    SocketServerOptions options;
    options.idle_timeout_ms = 400;  // tight, so the test is quick
    net_ = std::make_unique<SocketServer>(server_.get(), options);
    Status started = net_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  Database db_;
  Catalog catalog_;
  std::unique_ptr<runtime::Server> server_;
  std::unique_ptr<SocketServer> net_;
};

TEST_F(LivenessTest, SilentIdleConnectionIsReaped) {
  ClientOptions options;
  options.ping_interval_ms = 0;  // a client that never pings
  auto client = Client::Connect(net_->address().ToString(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::this_thread::sleep_for(std::chrono::milliseconds(900));
  // The server reaped the idle session (typed TimedOut ERROR, then
  // close); whichever the client observes first, the query must fail.
  auto result = (*client)->Run(Table1Queries()[7]);
  EXPECT_FALSE(result.ok());
}

TEST_F(LivenessTest, PingingClientSurvivesIdleReaping) {
  ClientOptions options;
  options.ping_interval_ms = 100;
  auto client = Client::Connect(net_->address().ToString(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // Explicit probes stand in for "waiting inside Run": each PING resets
  // the server's idle clock, so 3x the idle timeout passes harmlessly.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE((*client)->Ping().ok()) << "ping " << i;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  auto result = (*client)->Run(Table1Queries()[7]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->report.outcome, runtime::QueryOutcome::kCompleted);
  EXPECT_TRUE((*client)->Goodbye().ok());
}

}  // namespace
}  // namespace net
}  // namespace wireframe
