// Admission control and session lifecycle of the shared QueryRuntime:
// reject vs queue vs block policies, per-query row budgets and deadlines,
// and cooperative cancellation while queued and mid-phase. These run
// under the TSan CI job (smoke label): every test drives real engine Runs
// from multiple driver threads against one shared pool.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "query/parser.h"
#include "runtime/query_runtime.h"
#include "runtime/server.h"

namespace wireframe {
namespace runtime {
namespace {

/// Blocks the engine inside phase 2 on the first emitted row until the
/// test releases it — the deterministic way to hold a query "running"
/// while the test probes admission control or cancels mid-phase.
class GateSink : public Sink {
 public:
  bool Emit(const std::vector<NodeId>&) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (!started_) {
      started_ = true;
      started_cv_.notify_all();
    }
    release_cv_.wait(lock, [&] { return released_; });
    ++count_;
    return true;
  }
  uint64_t count() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

  /// Blocks until the engine delivered the first row.
  void WaitStarted() {
    std::unique_lock<std::mutex> lock(mu_);
    started_cv_.wait(lock, [&] { return started_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    release_cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable started_cv_;
  std::condition_variable release_cv_;
  bool started_ = false;
  bool released_ = false;
  uint64_t count_ = 0;
};

/// Shared test workload: a chain query with a 40k-embedding blow-up, big
/// enough that cancellation and budgets land mid-enumeration.
class QueryRuntimeTest : public ::testing::Test {
 protected:
  QueryRuntimeTest()
      : db_(MakeChainBlowupGraph(200, 200, /*noise=*/20)),
        cat_(Catalog::Build(db_.store())) {
    auto q = SparqlParser::ParseAndBind(
        "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }", db_);
    EXPECT_TRUE(q.ok());
    query_ = std::move(q).value();
  }

  QueryRequest Request(Sink* sink = nullptr) const {
    QueryRequest request;
    request.db = &db_;
    request.catalog = &cat_;
    request.query = query_;
    request.sink = sink;
    return request;
  }

  Database db_;
  Catalog cat_;
  QueryGraph query_;
};

RuntimeOptions SmallRuntime(uint32_t max_inflight, uint32_t max_queued) {
  RuntimeOptions options;
  options.pool_threads = 2;
  options.admission.max_inflight = max_inflight;
  options.admission.max_queued = max_queued;
  return options;
}

TEST_F(QueryRuntimeTest, RunsOneQueryToCompletion) {
  QueryRuntime runtime(SmallRuntime(2, 4));
  auto session = runtime.Submit(Request());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  (*session)->Wait();
  EXPECT_EQ((*session)->outcome(), QueryOutcome::kCompleted);
  EXPECT_EQ((*session)->rows_emitted(), 200u * 200u);
  EXPECT_EQ((*session)->stats().output_tuples, 200u * 200u);
  EXPECT_TRUE((*session)->status().ok());
  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST_F(QueryRuntimeTest, UnknownEngineIsRejectedAtSubmit) {
  QueryRuntime runtime(SmallRuntime(1, 0));
  QueryRequest request = Request();
  request.engine = "nope";
  auto session = runtime.Submit(std::move(request));
  EXPECT_FALSE(session.ok());
  EXPECT_TRUE(session.status().IsInvalidArgument());
}

TEST_F(QueryRuntimeTest, SaturatedRuntimeRejectsWhenQueueIsZero) {
  QueryRuntime runtime(SmallRuntime(/*max_inflight=*/1, /*max_queued=*/0));
  GateSink gate;
  auto running = runtime.Submit(Request(&gate));
  ASSERT_TRUE(running.ok());
  gate.WaitStarted();  // the single driver slot is now provably occupied

  auto rejected = runtime.Submit(Request());
  EXPECT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted())
      << rejected.status().ToString();
  EXPECT_EQ(runtime.stats().rejected, 1u);

  gate.Release();
  (*running)->Wait();
  EXPECT_EQ((*running)->outcome(), QueryOutcome::kCompleted);
}

TEST_F(QueryRuntimeTest, SecondQueryQueuesThenRuns) {
  QueryRuntime runtime(SmallRuntime(/*max_inflight=*/1, /*max_queued=*/1));
  GateSink gate;
  auto first = runtime.Submit(Request(&gate));
  ASSERT_TRUE(first.ok());
  gate.WaitStarted();

  auto queued = runtime.Submit(Request());
  ASSERT_TRUE(queued.ok()) << queued.status().ToString();
  EXPECT_FALSE((*queued)->done()) << "must wait behind the gated query";
  // A third submission overflows the queue and is shed.
  auto shed = runtime.Submit(Request());
  EXPECT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsResourceExhausted());

  gate.Release();
  (*queued)->Wait();
  EXPECT_EQ((*queued)->outcome(), QueryOutcome::kCompleted);
  EXPECT_GE((*queued)->queue_seconds(), 0.0);
}

TEST_F(QueryRuntimeTest, BlockWhenFullWaitsInsteadOfRejecting) {
  RuntimeOptions options = SmallRuntime(/*max_inflight=*/1, /*max_queued=*/0);
  options.admission.block_when_full = true;
  QueryRuntime runtime(options);
  GateSink gate;
  auto first = runtime.Submit(Request(&gate));
  ASSERT_TRUE(first.ok());
  gate.WaitStarted();

  std::atomic<bool> second_admitted{false};
  std::thread submitter([&] {
    auto second = runtime.Submit(Request());
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    second_admitted.store(true);
    (*second)->Wait();
    EXPECT_EQ((*second)->outcome(), QueryOutcome::kCompleted);
  });
  // The submitter must be blocked while the slot is held.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_admitted.load());
  gate.Release();
  submitter.join();
  EXPECT_EQ(runtime.stats().rejected, 0u);
}

TEST_F(QueryRuntimeTest, RowBudgetStopsTheRunAndReportsExhaustion) {
  RuntimeOptions options = SmallRuntime(2, 4);
  options.admission.default_row_budget = 100;
  QueryRuntime runtime(options);
  auto session = runtime.Submit(Request());
  ASSERT_TRUE(session.ok());
  (*session)->Wait();
  EXPECT_EQ((*session)->outcome(), QueryOutcome::kBudgetExhausted);
  EXPECT_EQ((*session)->rows_emitted(), 100u);
  EXPECT_TRUE((*session)->status().ok()) << "budget stop is not an error";
}

TEST_F(QueryRuntimeTest, ExactBudgetResultCompletesNaturally) {
  RuntimeOptions options = SmallRuntime(2, 4);
  QueryRuntime runtime(options);
  QueryRequest request = Request();
  request.row_budget = 200 * 200;  // exactly the result size
  auto session = runtime.Submit(std::move(request));
  ASSERT_TRUE(session.ok());
  (*session)->Wait();
  EXPECT_EQ((*session)->outcome(), QueryOutcome::kCompleted)
      << "a budget equal to the result size is not exhaustion";
  EXPECT_EQ((*session)->rows_emitted(), 200u * 200u);
}

TEST_F(QueryRuntimeTest, BudgetOneShortOfTheResultDeliversExactlyTheBudget) {
  RuntimeOptions options = SmallRuntime(2, 4);
  QueryRuntime runtime(options);
  CountingSink sink;
  QueryRequest request = Request(&sink);
  request.row_budget = 200 * 200 - 1;  // the last row is the surplus one
  auto session = runtime.Submit(std::move(request));
  ASSERT_TRUE(session.ok());
  (*session)->Wait();
  EXPECT_EQ((*session)->outcome(), QueryOutcome::kBudgetExhausted);
  EXPECT_EQ((*session)->rows_emitted(), 200u * 200u - 1);
  EXPECT_EQ(sink.count(), 200u * 200u - 1);
}

TEST_F(QueryRuntimeTest, PerRequestRowBudgetOverridesDefault) {
  RuntimeOptions options = SmallRuntime(2, 4);
  options.admission.default_row_budget = 100;
  QueryRuntime runtime(options);
  QueryRequest request = Request();
  request.row_budget = 0;  // explicit unlimited beats the default
  auto session = runtime.Submit(std::move(request));
  ASSERT_TRUE(session.ok());
  (*session)->Wait();
  EXPECT_EQ((*session)->outcome(), QueryOutcome::kCompleted);
  EXPECT_EQ((*session)->rows_emitted(), 200u * 200u);
}

TEST_F(QueryRuntimeTest, DefaultDeadlineTimesOutTheRun) {
  RuntimeOptions options = SmallRuntime(1, 0);
  options.admission.default_timeout_seconds = 1e-4;
  QueryRuntime runtime(options);
  auto session = runtime.Submit(Request());
  ASSERT_TRUE(session.ok());
  (*session)->Wait();
  EXPECT_EQ((*session)->outcome(), QueryOutcome::kTimedOut);
  EXPECT_TRUE((*session)->status().IsTimedOut());
}

TEST_F(QueryRuntimeTest, CancelMidPhaseStopsTheQuery) {
  QueryRuntime runtime(SmallRuntime(1, 0));
  GateSink gate;
  auto session = runtime.Submit(Request(&gate));
  ASSERT_TRUE(session.ok());
  gate.WaitStarted();  // provably inside phase-2 enumeration
  (*session)->Cancel();
  gate.Release();
  (*session)->Wait();
  EXPECT_EQ((*session)->outcome(), QueryOutcome::kCancelled);
  EXPECT_TRUE((*session)->status().IsCancelled())
      << (*session)->status().ToString();
  EXPECT_LT((*session)->rows_emitted(), 200u * 200u);
}

TEST_F(QueryRuntimeTest, CancelWhileQueuedNeverRuns) {
  QueryRuntime runtime(SmallRuntime(/*max_inflight=*/1, /*max_queued=*/1));
  GateSink gate;
  auto running = runtime.Submit(Request(&gate));
  ASSERT_TRUE(running.ok());
  gate.WaitStarted();
  auto queued = runtime.Submit(Request());
  ASSERT_TRUE(queued.ok());
  (*queued)->Cancel();

  // The cancelled session stops holding its admission slot: the next
  // Submit reaps it (finishing it with kCancelled) and takes the slot.
  auto replacement = runtime.Submit(Request());
  ASSERT_TRUE(replacement.ok()) << replacement.status().ToString();
  EXPECT_TRUE((*queued)->done());
  EXPECT_EQ((*queued)->outcome(), QueryOutcome::kCancelled);
  EXPECT_EQ((*queued)->rows_emitted(), 0u);

  gate.Release();
  (*running)->Wait();
  EXPECT_EQ((*running)->outcome(), QueryOutcome::kCompleted);
  (*replacement)->Wait();
  EXPECT_EQ((*replacement)->outcome(), QueryOutcome::kCompleted);
}

// Destroying the runtime while a submitter is parked in Submit
// (block_when_full) must hand that submitter a clean Cancelled-or-
// admitted outcome, never a use-after-free (TSan guards this).
TEST_F(QueryRuntimeTest, ShutdownReleasesBlockedSubmitter) {
  GateSink gate;
  std::thread submitter;
  Status second_status;
  std::shared_ptr<QuerySession> second_session;
  {
    RuntimeOptions options = SmallRuntime(/*max_inflight=*/1,
                                          /*max_queued=*/0);
    options.admission.block_when_full = true;
    QueryRuntime runtime(options);
    auto running = runtime.Submit(Request(&gate));
    ASSERT_TRUE(running.ok());
    gate.WaitStarted();
    submitter = std::thread([&] {
      auto second = runtime.Submit(Request());
      if (second.ok()) {
        second_session = std::move(second).value();
      } else {
        second_status = second.status();
      }
    });
    while (runtime.waiting_submitters() == 0) {
      std::this_thread::yield();  // provably parked before teardown
    }
    gate.Release();
    // Scope end: the destructor must drain the parked submitter before
    // members die, then cancel/finish whatever it still holds.
  }
  submitter.join();
  if (second_session != nullptr) {
    // Admitted in the race window before shutdown: must still be
    // finished by the destructor.
    EXPECT_TRUE(second_session->done());
  } else {
    EXPECT_TRUE(second_status.IsCancelled()) << second_status.ToString();
  }
}

TEST_F(QueryRuntimeTest, ShutdownFinishesEverySession) {
  std::vector<std::shared_ptr<QuerySession>> sessions;
  {
    QueryRuntime runtime(SmallRuntime(/*max_inflight=*/1, /*max_queued=*/8));
    for (int i = 0; i < 6; ++i) {
      auto session = runtime.Submit(Request());
      ASSERT_TRUE(session.ok());
      sessions.push_back(std::move(session).value());
    }
    // Destructor: cancels what is still queued, revokes what runs.
  }
  for (const auto& session : sessions) {
    EXPECT_TRUE(session->done());
    const QueryOutcome outcome = session->outcome();
    EXPECT_TRUE(outcome == QueryOutcome::kCompleted ||
                outcome == QueryOutcome::kCancelled)
        << QueryOutcomeName(outcome);
  }
}

// --- Service classes: weights, quotas, and queue policies. ---

/// Execution-order probe: records which query started running (first row
/// reached the sink) in what order.
class OrderSink : public Sink {
 public:
  OrderSink(std::vector<std::string>* log, std::mutex* mu, std::string tag)
      : log_(log), mu_(mu), tag_(std::move(tag)) {}
  bool Emit(const std::vector<NodeId>&) override {
    if (!recorded_) {
      recorded_ = true;
      std::lock_guard<std::mutex> lock(*mu_);
      log_->push_back(tag_);
    }
    ++count_;
    return true;
  }
  uint64_t count() const override { return count_; }

 private:
  std::vector<std::string>* log_;
  std::mutex* mu_;
  std::string tag_;
  bool recorded_ = false;
  uint64_t count_ = 0;
};

RuntimeOptions TenantRuntime(uint32_t max_inflight,
                             std::vector<TenantSpec> tenants) {
  RuntimeOptions options;
  options.pool_threads = 2;
  options.admission.max_inflight = max_inflight;
  options.admission.max_queued = 64;
  options.admission.tenants = std::move(tenants);
  return options;
}

TEST_F(QueryRuntimeTest, RejectQuotaShedsTenantButNotOthers) {
  TenantSpec batch;
  batch.name = "batch";
  batch.max_inflight = 1;
  batch.when_at_quota = QuotaPolicy::kReject;
  QueryRuntime runtime(TenantRuntime(/*max_inflight=*/3, {batch}));

  GateSink gate;
  QueryRequest first = Request(&gate);
  first.service_class = "batch";
  auto running = runtime.Submit(std::move(first));
  ASSERT_TRUE(running.ok());
  gate.WaitStarted();  // the tenant's one slot is provably occupied

  QueryRequest second = Request();
  second.service_class = "batch";
  auto shed = runtime.Submit(std::move(second));
  EXPECT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsResourceExhausted())
      << shed.status().ToString();

  // The runtime itself is far from saturated: other classes sail in.
  auto other = runtime.Submit(Request());
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  (*other)->Wait();
  EXPECT_EQ((*other)->outcome(), QueryOutcome::kCompleted);

  gate.Release();
  (*running)->Wait();
  EXPECT_EQ((*running)->outcome(), QueryOutcome::kCompleted);
  EXPECT_EQ((*running)->service_class(), "batch");

  const RuntimeStats stats = runtime.stats();
  ASSERT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants[0].tenant, "default");
  EXPECT_EQ(stats.tenants[1].tenant, "batch");
  EXPECT_EQ(stats.tenants[1].submitted, 2u);
  EXPECT_EQ(stats.tenants[1].rejected, 1u);
  EXPECT_EQ(stats.tenants[1].completed, 1u);
  EXPECT_EQ(stats.tenants[0].rejected, 0u);
}

TEST_F(QueryRuntimeTest, QueueQuotaWaitsForOwnSlotWhileOthersRun) {
  TenantSpec batch;
  batch.name = "batch";
  batch.max_inflight = 1;
  batch.when_at_quota = QuotaPolicy::kQueue;
  QueryRuntime runtime(TenantRuntime(/*max_inflight=*/2, {batch}));

  GateSink gate;
  QueryRequest first = Request(&gate);
  first.service_class = "batch";
  auto running = runtime.Submit(std::move(first));
  ASSERT_TRUE(running.ok());
  gate.WaitStarted();

  // Admitted, but must hold behind the tenant's own quota even though a
  // second driver sits idle.
  QueryRequest second = Request();
  second.service_class = "batch";
  auto queued = runtime.Submit(std::move(second));
  ASSERT_TRUE(queued.ok()) << queued.status().ToString();
  EXPECT_FALSE((*queued)->done());

  // The idle driver still serves other classes meanwhile.
  auto other = runtime.Submit(Request());
  ASSERT_TRUE(other.ok());
  (*other)->Wait();
  EXPECT_EQ((*other)->outcome(), QueryOutcome::kCompleted);
  EXPECT_FALSE((*queued)->done()) << "still quota-blocked";

  gate.Release();
  (*running)->Wait();
  (*queued)->Wait();
  EXPECT_EQ((*queued)->outcome(), QueryOutcome::kCompleted);
}

TEST_F(QueryRuntimeTest, WeightedDispatchFavorsLatencyClass) {
  TenantSpec latency;
  latency.name = "latency";
  latency.weight = 4;
  TenantSpec batch;
  batch.name = "batch";
  batch.weight = 1;
  // One driver: dispatch order is the stride schedule, observable via
  // each query's first emitted row.
  QueryRuntime runtime(TenantRuntime(/*max_inflight=*/1, {latency, batch}));

  GateSink gate;
  auto gate_session = runtime.Submit(Request(&gate));
  ASSERT_TRUE(gate_session.ok());
  gate.WaitStarted();  // driver busy: everything below queues up

  std::vector<std::string> order;
  std::mutex order_mu;
  std::vector<std::unique_ptr<OrderSink>> sinks;
  std::vector<std::shared_ptr<QuerySession>> sessions;
  auto enqueue = [&](const std::string& service_class) {
    sinks.push_back(
        std::make_unique<OrderSink>(&order, &order_mu, service_class));
    QueryRequest request = Request(sinks.back().get());
    request.service_class = service_class;
    auto session = runtime.Submit(std::move(request));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    sessions.push_back(std::move(session).value());
  };
  // Batch floods the queue first; latency arrives last and must still
  // dominate the head of the dispatch schedule.
  for (int i = 0; i < 5; ++i) enqueue("batch");
  for (int i = 0; i < 5; ++i) enqueue("latency");

  gate.Release();
  (*gate_session)->Wait();
  for (auto& session : sessions) session->Wait();

  ASSERT_EQ(order.size(), 10u);
  const size_t latency_in_first_five =
      static_cast<size_t>(std::count(order.begin(), order.begin() + 5,
                                     std::string("latency")));
  EXPECT_GE(latency_in_first_five, 3u)
      << "weight 4:1 must front-load the latency class";
  // FIFO within a class is preserved, and nothing is lost.
  EXPECT_EQ(std::count(order.begin(), order.end(), std::string("batch")), 5);
}

TEST_F(QueryRuntimeTest, ExtremeWeightsStarveNoTenant) {
  TenantSpec latency;
  latency.name = "latency";
  latency.weight = 1000;
  TenantSpec batch;
  batch.name = "batch";
  batch.weight = 1;
  QueryRuntime runtime(TenantRuntime(/*max_inflight=*/2, {latency, batch}));

  std::vector<std::shared_ptr<QuerySession>> sessions;
  for (int i = 0; i < 12; ++i) {
    QueryRequest request = Request();
    request.service_class = i % 3 == 0 ? "batch" : "latency";
    auto session = runtime.Submit(std::move(request));
    ASSERT_TRUE(session.ok());
    sessions.push_back(std::move(session).value());
  }
  for (auto& session : sessions) {
    session->Wait();
    EXPECT_EQ(session->outcome(), QueryOutcome::kCompleted)
        << session->service_class() << ": " << session->status().ToString();
  }
  const RuntimeStats stats = runtime.stats();
  ASSERT_EQ(stats.tenants.size(), 3u);
  EXPECT_EQ(stats.tenants[1].completed, 8u);  // latency
  EXPECT_EQ(stats.tenants[2].completed, 4u);  // batch: never starved
}

// Several kReject-tenant submitters parked on a full runtime
// (block_when_full) may wake together; only as many as the quota allows
// may enqueue — the rest must shed on the post-wait re-check.
TEST_F(QueryRuntimeTest, RejectQuotaHoldsAcrossBlockedSubmitters) {
  TenantSpec batch;
  batch.name = "batch";
  batch.max_inflight = 1;
  batch.when_at_quota = QuotaPolicy::kReject;
  RuntimeOptions options = TenantRuntime(/*max_inflight=*/2, {batch});
  options.admission.max_queued = 0;
  options.admission.block_when_full = true;
  QueryRuntime runtime(options);

  // Two gated default-class queries occupy both drivers and the whole
  // admission capacity.
  GateSink gate_a;
  GateSink gate_b;
  auto running_a = runtime.Submit(Request(&gate_a));
  auto running_b = runtime.Submit(Request(&gate_b));
  ASSERT_TRUE(running_a.ok());
  ASSERT_TRUE(running_b.ok());
  gate_a.WaitStarted();
  gate_b.WaitStarted();

  // Two batch submitters both pass the pre-wait quota check (the tenant
  // is empty) and park on the saturated runtime. The batch query itself
  // is gated so the first admission provably still holds the tenant's
  // one slot when the second submitter re-checks.
  GateSink batch_gate;
  std::atomic<int> admitted{0};
  std::atomic<int> shed{0};
  auto submit_batch = [&] {
    QueryRequest request = Request(&batch_gate);
    request.service_class = "batch";
    auto session = runtime.Submit(std::move(request));
    if (session.ok()) {
      ++admitted;
      (*session)->Wait();
    } else {
      EXPECT_TRUE(session.status().IsResourceExhausted())
          << session.status().ToString();
      ++shed;
    }
  };
  std::thread first(submit_batch);
  std::thread second(submit_batch);
  while (runtime.waiting_submitters() < 2) {
    std::this_thread::yield();  // both provably parked before the wake
  }
  gate_a.Release();
  gate_b.Release();
  (*running_a)->Wait();
  (*running_b)->Wait();

  // One submitter wins the tenant's slot; the other must shed on wake,
  // not enqueue past the quota.
  while (admitted.load() + shed.load() < 1) std::this_thread::yield();
  while (shed.load() < 1 && admitted.load() < 2) std::this_thread::yield();
  batch_gate.Release();
  first.join();
  second.join();
  EXPECT_EQ(admitted.load(), 1);
  EXPECT_EQ(shed.load(), 1);
  EXPECT_EQ(runtime.stats().tenants[1].rejected, 1u);
}

TEST_F(QueryRuntimeTest, UnknownClassRunsAsDefaultTenant) {
  QueryRuntime runtime(SmallRuntime(2, 4));
  QueryRequest request = Request();
  request.service_class = "no-such-class";
  auto session = runtime.Submit(std::move(request));
  ASSERT_TRUE(session.ok());
  (*session)->Wait();
  EXPECT_EQ((*session)->outcome(), QueryOutcome::kCompleted);
  EXPECT_EQ((*session)->service_class(), "default");
  const RuntimeStats stats = runtime.stats();
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].tenant, "default");
  EXPECT_EQ(stats.tenants[0].submitted, 1u);
}

TEST_F(QueryRuntimeTest, DefaultSpecOverridesImplicitTenant) {
  TenantSpec strict;
  strict.name = "default";
  strict.max_inflight = 1;
  strict.when_at_quota = QuotaPolicy::kReject;
  QueryRuntime runtime(TenantRuntime(/*max_inflight=*/3, {strict}));

  GateSink gate;
  auto running = runtime.Submit(Request(&gate));
  ASSERT_TRUE(running.ok());
  gate.WaitStarted();
  auto shed = runtime.Submit(Request());
  EXPECT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsResourceExhausted());
  gate.Release();
  (*running)->Wait();
  EXPECT_EQ((*running)->outcome(), QueryOutcome::kCompleted);
}

TEST_F(QueryRuntimeTest, ServerBatchReportsMatchSequentialRuns) {
  ServerOptions options;
  options.runtime = SmallRuntime(/*max_inflight=*/3, /*max_queued=*/16);
  Server server(db_, cat_, options);
  const std::string text =
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }";
  std::vector<std::string> batch = {text, "select * where { broken",
                                    text, text};
  const std::vector<QueryReport> reports = server.RunBatch(batch);
  ASSERT_EQ(reports.size(), 4u);
  for (size_t i : {size_t{0}, size_t{2}, size_t{3}}) {
    EXPECT_TRUE(reports[i].admitted);
    EXPECT_EQ(reports[i].outcome, QueryOutcome::kCompleted) << "query " << i;
    EXPECT_EQ(reports[i].rows, 200u * 200u) << "query " << i;
  }
  EXPECT_FALSE(reports[1].admitted);
  EXPECT_FALSE(reports[1].status.ok());
}

// A report shed at admission used to come back default-initialized; it
// must carry the tenant the query would have run as and an explicit
// ResourceExhausted status.
TEST_F(QueryRuntimeTest, RejectedBatchReportCarriesClassAndStatus) {
  TenantSpec batch;
  batch.name = "batch";
  batch.max_inflight = 1;
  batch.when_at_quota = QuotaPolicy::kReject;
  ServerOptions options;
  options.runtime = TenantRuntime(/*max_inflight=*/3, {batch});
  Server server(db_, cat_, options);

  const std::string text =
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }";
  GateSink gate;
  std::vector<Sink*> sinks = {&gate, nullptr};
  std::vector<std::string> classes = {"batch", "batch"};
  // RunBatch blocks this thread until the whole batch finished, so the
  // gate is released from the side — only once the second query was
  // provably shed against the first one's held slot.
  std::thread releaser([&] {
    gate.WaitStarted();
    while (server.runtime().stats().tenants[1].rejected < 1) {
      std::this_thread::yield();
    }
    gate.Release();
  });
  const std::vector<QueryReport> reports =
      server.RunBatch({text, text}, &sinks, &classes);
  releaser.join();

  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(reports[0].admitted);
  EXPECT_EQ(reports[0].outcome, QueryOutcome::kCompleted);
  EXPECT_EQ(reports[0].service_class, "batch");
  // The regression: the shed report names its tenant and says why.
  EXPECT_FALSE(reports[1].admitted);
  EXPECT_EQ(reports[1].service_class, "batch");
  EXPECT_TRUE(reports[1].status.IsResourceExhausted())
      << reports[1].status.ToString();
}

// --- Answer-graph cache (runtime::AgCache). ---

TEST_F(QueryRuntimeTest, CacheHitSkipsPhaseOneAndMatchesRows) {
  RuntimeOptions options = SmallRuntime(2, 4);
  options.admission.ag_cache_bytes = 32ull << 20;
  QueryRuntime runtime(options);

  auto cold = runtime.Submit(Request());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  (*cold)->Wait();
  EXPECT_EQ((*cold)->outcome(), QueryOutcome::kCompleted);
  EXPECT_FALSE((*cold)->cache_hit());
  EXPECT_GT((*cold)->stats().phase1_seconds, 0.0);
  EXPECT_EQ((*cold)->rows_emitted(), 200u * 200u);

  auto hit = runtime.Submit(Request());
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  (*hit)->Wait();
  EXPECT_EQ((*hit)->outcome(), QueryOutcome::kCompleted);
  EXPECT_TRUE((*hit)->cache_hit());
  // The cached frozen AG is reused: no generation, no burnback.
  EXPECT_EQ((*hit)->stats().phase1_seconds, 0.0);
  EXPECT_EQ((*hit)->stats().burnback_seconds, 0.0);
  EXPECT_EQ((*hit)->rows_emitted(), 200u * 200u);

  const RuntimeStats stats = runtime.stats();
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].cache_misses, 1u);
  EXPECT_EQ(stats.tenants[0].cache_hits, 1u);
  EXPECT_EQ(stats.tenants[0].cache_inserts, 1u);
  EXPECT_EQ(stats.tenants[0].cache_entries, 1u);
  EXPECT_GT(stats.tenants[0].cache_bytes, 0u);
}

TEST_F(QueryRuntimeTest, IsomorphicRenamingHitsTheCache) {
  RuntimeOptions options = SmallRuntime(2, 4);
  options.admission.ag_cache_bytes = 32ull << 20;
  QueryRuntime runtime(options);

  auto cold = runtime.Submit(Request());
  ASSERT_TRUE(cold.ok());
  (*cold)->Wait();
  ASSERT_EQ((*cold)->outcome(), QueryOutcome::kCompleted);

  // Same shape under renamed variables: different text, same canonical
  // key — and the remapped rows land in the original variable order.
  auto renamed = SparqlParser::ParseAndBind(
      "select * where { ?a A ?b . ?b B ?c . ?c C ?d . }", db_);
  ASSERT_TRUE(renamed.ok());
  QueryRequest request = Request();
  request.query = std::move(renamed).value();
  auto hit = runtime.Submit(std::move(request));
  ASSERT_TRUE(hit.ok());
  (*hit)->Wait();
  EXPECT_EQ((*hit)->outcome(), QueryOutcome::kCompleted);
  EXPECT_TRUE((*hit)->cache_hit());
  EXPECT_EQ((*hit)->rows_emitted(), 200u * 200u);
}

// Satellite of the factorized-aggregate PR: the cache key ignores the
// aggregate clause, so the AG a plain SELECT filled serves a later
// COUNT(*) of the same shape — no phase 1, no burnback, and (because
// the count runs as the DP over the cached frozen CSR) no enumeration.
TEST_F(QueryRuntimeTest, CachedSelectAgServesLaterCountWithoutPhaseOne) {
  RuntimeOptions options = SmallRuntime(2, 4);
  options.admission.ag_cache_bytes = 32ull << 20;
  QueryRuntime runtime(options);

  auto cold = runtime.Submit(Request());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  (*cold)->Wait();
  ASSERT_EQ((*cold)->outcome(), QueryOutcome::kCompleted);
  ASSERT_EQ((*cold)->rows_emitted(), 200u * 200u);

  auto count = SparqlParser::ParseAndBind(
      "select (count(*) as ?c) where { ?w A ?x . ?x B ?y . ?y C ?z . }",
      db_);
  ASSERT_TRUE(count.ok());
  CountingSink rows;
  QueryRequest request = Request(&rows);
  request.query = std::move(count).value();
  auto hit = runtime.Submit(std::move(request));
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  (*hit)->Wait();
  EXPECT_EQ((*hit)->outcome(), QueryOutcome::kCompleted);
  EXPECT_TRUE((*hit)->cache_hit());
  EXPECT_EQ((*hit)->stats().phase1_seconds, 0.0);
  EXPECT_EQ((*hit)->stats().burnback_seconds, 0.0);
  ASSERT_TRUE((*hit)->has_aggregate());
  const AggregateResult aggregate = (*hit)->aggregate();
  EXPECT_TRUE(aggregate.factorized) << aggregate.fallback_reason;
  EXPECT_EQ(aggregate.value, AggregateValue::FromU64(200u * 200u));
  EXPECT_EQ(rows.count(), 0u) << "the count must not enumerate rows";
  EXPECT_EQ((*hit)->stats().output_tuples, 1u);
  EXPECT_EQ(runtime.stats().tenants[0].cache_hits, 1u);
}

// The renamed-isomorphic flavor: the COUNT arrives under different
// variable names and with a GROUP BY, whose key variable must be mapped
// into the cached entry's variable space. Aggregate answers are keyed
// by data nodes, so they need no per-row remap — the groups must be
// bit-identical to an uncached run of the renamed query itself.
TEST_F(QueryRuntimeTest, RenamedGroupByCountHitsTheCache) {
  const std::string renamed_text =
      "select ?a (count(*) as ?c) where "
      "{ ?a A ?b . ?b B ?c . ?c C ?d . } group by ?a";
  auto renamed = SparqlParser::ParseAndBind(renamed_text, db_);
  ASSERT_TRUE(renamed.ok());

  // Reference: the renamed query on a cache-less runtime.
  AggregateResult reference;
  {
    QueryRuntime runtime(SmallRuntime(2, 4));
    QueryRequest request = Request();
    request.query = *renamed;
    auto session = runtime.Submit(std::move(request));
    ASSERT_TRUE(session.ok());
    (*session)->Wait();
    ASSERT_EQ((*session)->outcome(), QueryOutcome::kCompleted);
    ASSERT_TRUE((*session)->has_aggregate());
    reference = (*session)->aggregate();
  }

  RuntimeOptions options = SmallRuntime(2, 4);
  options.admission.ag_cache_bytes = 32ull << 20;
  QueryRuntime runtime(options);
  auto cold = runtime.Submit(Request());  // the plain SELECT fills
  ASSERT_TRUE(cold.ok());
  (*cold)->Wait();
  ASSERT_EQ((*cold)->outcome(), QueryOutcome::kCompleted);

  QueryRequest request = Request();
  request.query = std::move(renamed).value();
  auto hit = runtime.Submit(std::move(request));
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  (*hit)->Wait();
  EXPECT_EQ((*hit)->outcome(), QueryOutcome::kCompleted);
  EXPECT_TRUE((*hit)->cache_hit());
  EXPECT_EQ((*hit)->stats().phase1_seconds, 0.0);
  EXPECT_EQ((*hit)->stats().burnback_seconds, 0.0);
  ASSERT_TRUE((*hit)->has_aggregate());
  const AggregateResult aggregate = (*hit)->aggregate();
  EXPECT_EQ(aggregate.value, reference.value);
  EXPECT_EQ(aggregate.groups, reference.groups);
}

TEST_F(QueryRuntimeTest, CacheOffByDefaultNeverHits) {
  QueryRuntime runtime(SmallRuntime(2, 4));
  for (int i = 0; i < 2; ++i) {
    auto session = runtime.Submit(Request());
    ASSERT_TRUE(session.ok());
    (*session)->Wait();
    EXPECT_EQ((*session)->outcome(), QueryOutcome::kCompleted);
    EXPECT_FALSE((*session)->cache_hit());
    EXPECT_GT((*session)->stats().phase1_seconds, 0.0);
  }
  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.tenants[0].cache_hits, 0u);
  EXPECT_EQ(stats.tenants[0].cache_misses, 0u);
  EXPECT_EQ(stats.tenants[0].cache_entries, 0u);
}

TEST_F(QueryRuntimeTest, TenantCanOptOutOfTheCache) {
  TenantSpec nocache;
  nocache.name = "nocache";
  nocache.ag_cache_bytes = 0;  // opts out of the admission default
  RuntimeOptions options = TenantRuntime(/*max_inflight=*/2, {nocache});
  options.admission.ag_cache_bytes = 32ull << 20;
  QueryRuntime runtime(options);

  for (int i = 0; i < 2; ++i) {
    QueryRequest request = Request();
    request.service_class = "nocache";
    auto session = runtime.Submit(std::move(request));
    ASSERT_TRUE(session.ok());
    (*session)->Wait();
    EXPECT_EQ((*session)->outcome(), QueryOutcome::kCompleted);
    EXPECT_FALSE((*session)->cache_hit()) << "run " << i;
  }
  // The default tenant still inherits the admission quota and caches.
  for (int i = 0; i < 2; ++i) {
    auto session = runtime.Submit(Request());
    ASSERT_TRUE(session.ok());
    (*session)->Wait();
    EXPECT_EQ((*session)->cache_hit(), i == 1) << "run " << i;
  }
  const RuntimeStats stats = runtime.stats();
  ASSERT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants[0].cache_hits, 1u);
  EXPECT_EQ(stats.tenants[1].cache_hits, 0u);
  EXPECT_EQ(stats.tenants[1].cache_misses, 0u);
}

// The server surfaces cache hits per report; serialized by a one-driver
// runtime so the second identical query deterministically hits.
TEST_F(QueryRuntimeTest, ServerReportsCarryCacheHits) {
  ServerOptions options;
  options.runtime = SmallRuntime(/*max_inflight=*/1, /*max_queued=*/16);
  options.runtime.admission.ag_cache_bytes = 32ull << 20;
  Server server(db_, cat_, options);
  const std::string text =
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }";
  const std::vector<QueryReport> reports =
      server.RunBatch({text, text, text});
  ASSERT_EQ(reports.size(), 3u);
  for (const QueryReport& report : reports) {
    EXPECT_EQ(report.outcome, QueryOutcome::kCompleted);
    EXPECT_EQ(report.rows, 200u * 200u);
    EXPECT_EQ(report.cache_hit, report.index != 0);
    if (report.cache_hit) {
      EXPECT_EQ(report.stats.phase1_seconds, 0.0);
    }
  }
}

// Burnback diagnostics (pairs_burned, cascade depth, handoffs) ride
// EngineStats into the session and the server's per-query reports, and
// match a direct engine run exactly.
TEST(QueryRuntimeBurnbackStatsTest, ReportsCarryBurnbackCounters) {
  // Sparse cyclic square: constrained extensions strand endpoint nodes,
  // so node burnback provably erases pairs (asserted below, not
  // assumed — the lookahead filter cannot see joint constraints).
  Database db = MakeRandomGraph(200, 3, 1200, 42);
  Catalog cat = Catalog::Build(db.store());
  const std::string text =
      "select * where { ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . }";
  auto q = SparqlParser::ParseAndBind(text, db);
  ASSERT_TRUE(q.ok());

  auto direct_engine = MakeEngine("WF");
  CountingSink direct_sink;
  auto direct =
      direct_engine->Run(db, cat, *q, EngineOptions{}, &direct_sink);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_GT(direct->pairs_burned, 0u) << "fixture must exercise burnback";
  EXPECT_GT(direct->burnback_depth, 0u);

  ServerOptions options;
  options.runtime.pool_threads = 2;
  Server server(db, cat, options);
  const std::vector<QueryReport> reports = server.RunBatch({text});
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].outcome, QueryOutcome::kCompleted);
  EXPECT_EQ(reports[0].stats.pairs_burned, direct->pairs_burned);
  // Depth and handoffs are schedule-dependent diagnostics (the runtime
  // run may drain in parallel); the invariant part is the erase count,
  // already asserted. The fields must simply be populated sanely.
  EXPECT_GT(reports[0].stats.burnback_depth, 0u);
  EXPECT_LE(reports[0].stats.burnback_handoffs,
            reports[0].stats.pairs_burned);
}

}  // namespace
}  // namespace runtime
}  // namespace wireframe
