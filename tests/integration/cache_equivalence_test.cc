// Cache equivalence: a query served from the answer-graph cache (phase 2
// over a shared frozen AG built by an earlier isomorphic run) must
// produce exactly the embeddings and |AG| of a cold run — on the paper
// fixtures and randomized workloads, and under row budgets, deadlines,
// and mid-defactorization cancellation. The concurrent same-key test is
// the TSan workload for the single-flight fill protocol.

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/wireframe.h"
#include "datagen/synthetic.h"
#include "query/parser.h"
#include "runtime/query_runtime.h"
#include "testutil/fixtures.h"

namespace wireframe {
namespace runtime {
namespace {

/// Blocks phase 2 on the first emitted row until released (same idiom as
/// the runtime tests): holds a hit provably mid-defactorization.
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

/// Holds the first batch (or row) it receives until `hold_seconds` have
/// passed since it arrived. A deadline of at most that much, set before
/// phase 2 started, has then provably expired mid-enumeration, however
/// fast the enumeration is.
class HoldFirstBatchSink : public Sink {
 public:
  explicit HoldFirstBatchSink(double hold_seconds)
      : hold_seconds_(hold_seconds) {}
  bool Emit(const std::vector<NodeId>&) override {
    Hold();
    ++count_;
    return true;
  }
  bool EmitBatch(const NodeId*, size_t n, size_t) override {
    Hold();
    count_ += n;
    return true;
  }
  uint64_t count() const override { return count_; }

 private:
  void Hold() {
    if (held_) return;
    held_ = true;
    const Deadline until = Deadline::AfterSeconds(hold_seconds_);
    while (!until.Expired()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  double hold_seconds_;
  bool held_ = false;
  uint64_t count_ = 0;
};

RuntimeOptions CachedRuntime() {
  RuntimeOptions options;
  options.pool_threads = 2;
  options.admission.max_inflight = 2;
  options.admission.ag_cache_bytes = 256ull << 20;
  return options;
}

struct CacheRun {
  std::set<std::vector<NodeId>> rows;
  uint64_t ag_pairs = 0;
  bool cache_hit = false;
  QueryOutcome outcome = QueryOutcome::kPending;
};

CacheRun RunCached(QueryRuntime& runtime, const Database& db,
                   const Catalog& cat, const QueryGraph& q) {
  CollectingSink sink;
  QueryRequest request;
  request.db = &db;
  request.catalog = &cat;
  request.query = q;
  request.sink = &sink;
  auto session = runtime.Submit(std::move(request));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  if (!session.ok()) return {};
  (*session)->Wait();
  EXPECT_TRUE((*session)->status().ok())
      << (*session)->status().ToString();
  CacheRun run;
  run.rows = {sink.rows().begin(), sink.rows().end()};
  run.ag_pairs = (*session)->stats().ag_pairs;
  run.cache_hit = (*session)->cache_hit();
  run.outcome = (*session)->outcome();
  return run;
}

/// Cold fill, then a hit off the shared frozen AG: embeddings and |AG|
/// must match each other AND a direct engine run (the ground truth also
/// proves the canonical-space remap is sound on both paths).
void ExpectColdAndHitEquivalent(const Database& db, const Catalog& cat,
                                const QueryGraph& q, const char* what) {
  WireframeEngine engine;
  CollectingSink direct_sink;
  auto direct = engine.Run(db, cat, q, EngineOptions{}, &direct_sink);
  ASSERT_TRUE(direct.ok()) << what << ": " << direct.status().ToString();
  const std::set<std::vector<NodeId>> truth(direct_sink.rows().begin(),
                                            direct_sink.rows().end());

  QueryRuntime runtime(CachedRuntime());
  const CacheRun cold = RunCached(runtime, db, cat, q);
  EXPECT_FALSE(cold.cache_hit) << what;
  EXPECT_EQ(cold.outcome, QueryOutcome::kCompleted) << what;
  EXPECT_EQ(cold.rows, truth) << what << " (cold)";

  const CacheRun hit = RunCached(runtime, db, cat, q);
  EXPECT_TRUE(hit.cache_hit) << what;
  EXPECT_EQ(hit.outcome, QueryOutcome::kCompleted) << what;
  EXPECT_EQ(hit.rows, truth) << what << " (hit)";
  EXPECT_EQ(hit.ag_pairs, cold.ag_pairs) << what;
}

using CacheFig1Test = testutil::Fig1Fixture;
using CacheFig4Test = testutil::Fig4Fixture;

TEST_F(CacheFig1Test, Fig1HitMatchesColdRun) {
  ExpectColdAndHitEquivalent(db_, cat_, query(), "fig1");
}

TEST_F(CacheFig4Test, Fig4HitMatchesColdRun) {
  ExpectColdAndHitEquivalent(db_, cat_, query(), "fig4");
}

TEST(CacheEquivalenceTest, RandomInstancesMatch) {
  Rng rng(20260808);
  for (int trial = 0; trial < 6; ++trial) {
    Database db = MakeRandomGraph(30, 3, 300, 7300 + trial);
    Catalog cat = Catalog::Build(db.store());
    QueryGraph q = MakeRandomQuery(rng, 2 + rng.Uniform(3), 5, 3);
    ExpectColdAndHitEquivalent(db, cat, q, "random");
  }
}

// Cyclic shape: the hit path's chord filters probe the shared frozen AG.
TEST(CacheEquivalenceTest, DenseSquareChordFiltersMatch) {
  Database db = MakeRandomGraph(80, 3, 6000, 777);
  Catalog cat = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . }", db);
  ASSERT_TRUE(q.ok());
  ExpectColdAndHitEquivalent(db, cat, *q, "dense-square");
}

/// Chain-blowup workload shared by the budget/deadline/cancel tests:
/// 40k embeddings, big enough that stops land mid-enumeration.
class CacheRuntimeTest : public ::testing::Test {
 protected:
  CacheRuntimeTest()
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

// A budget-stopped cold run still completes phase 1 and fills the cache;
// the hit repeat stops at the same budget with the same row count.
TEST_F(CacheRuntimeTest, RowBudgetsMatchBetweenColdAndHit) {
  QueryRuntime runtime(CachedRuntime());
  for (int pass = 0; pass < 2; ++pass) {
    QueryRequest request = Request();
    request.row_budget = 100;
    auto session = runtime.Submit(std::move(request));
    ASSERT_TRUE(session.ok());
    (*session)->Wait();
    EXPECT_EQ((*session)->outcome(), QueryOutcome::kBudgetExhausted)
        << "pass " << pass;
    EXPECT_EQ((*session)->rows_emitted(), 100u) << "pass " << pass;
    EXPECT_EQ((*session)->cache_hit(), pass == 1) << "pass " << pass;
  }
  // A later unbudgeted hit still sees the complete AG: the budget only
  // clamped the earlier sinks, never the cached graph.
  auto full = runtime.Submit(Request());
  ASSERT_TRUE(full.ok());
  (*full)->Wait();
  EXPECT_TRUE((*full)->cache_hit());
  EXPECT_EQ((*full)->outcome(), QueryOutcome::kCompleted);
  EXPECT_EQ((*full)->rows_emitted(), 200u * 200u);
}

TEST_F(CacheRuntimeTest, DeadlineStillFiresOnTheHitPath) {
  QueryRuntime runtime(CachedRuntime());
  auto fill = runtime.Submit(Request());
  ASSERT_TRUE(fill.ok());
  (*fill)->Wait();
  ASSERT_EQ((*fill)->outcome(), QueryOutcome::kCompleted);

  // The sink holds phase 2 past the deadline, so the timeout cannot
  // race a fast enumeration.
  HoldFirstBatchSink hold(/*hold_seconds=*/1e-3);
  QueryRequest timed = Request(&hold);
  timed.timeout_seconds = 1e-4;
  auto session = runtime.Submit(std::move(timed));
  ASSERT_TRUE(session.ok());
  (*session)->Wait();
  EXPECT_TRUE((*session)->cache_hit());
  EXPECT_EQ((*session)->outcome(), QueryOutcome::kTimedOut);
  EXPECT_TRUE((*session)->status().IsTimedOut())
      << (*session)->status().ToString();
}

TEST_F(CacheRuntimeTest, CancelMidDefactorizationOnTheHitPath) {
  QueryRuntime runtime(CachedRuntime());
  auto fill = runtime.Submit(Request());
  ASSERT_TRUE(fill.ok());
  (*fill)->Wait();
  ASSERT_EQ((*fill)->outcome(), QueryOutcome::kCompleted);

  GateSink gate;
  auto session = runtime.Submit(Request(&gate));
  ASSERT_TRUE(session.ok());
  gate.WaitStarted();  // provably enumerating off the cached AG
  (*session)->Cancel();
  gate.Release();
  (*session)->Wait();
  EXPECT_TRUE((*session)->cache_hit());
  EXPECT_EQ((*session)->outcome(), QueryOutcome::kCancelled);
  EXPECT_TRUE((*session)->status().IsCancelled())
      << (*session)->status().ToString();
}

// Concurrent identical submissions race the single-flight fill: exactly
// one inserts, the losers run cold without waiting, later arrivals hit —
// and every query still delivers the full result.
TEST_F(CacheRuntimeTest, ConcurrentSameKeySubmissionsRaceOneFill) {
  RuntimeOptions options = CachedRuntime();
  options.admission.max_inflight = 4;
  QueryRuntime runtime(options);

  constexpr int kQueries = 6;
  std::vector<std::shared_ptr<QuerySession>> sessions;
  for (int i = 0; i < kQueries; ++i) {
    auto session = runtime.Submit(Request());
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    sessions.push_back(std::move(session).value());
  }
  for (auto& session : sessions) {
    session->Wait();
    EXPECT_EQ(session->outcome(), QueryOutcome::kCompleted)
        << session->status().ToString();
    EXPECT_EQ(session->rows_emitted(), 200u * 200u);
  }
  const RuntimeStats stats = runtime.stats();
  ASSERT_EQ(stats.tenants.size(), 1u);
  const TenantStats& ts = stats.tenants[0];
  EXPECT_EQ(ts.cache_hits + ts.cache_misses,
            static_cast<uint64_t>(kQueries));
  EXPECT_EQ(ts.cache_inserts, 1u) << "single-flight: exactly one fill";
  EXPECT_EQ(ts.cache_entries, 1u);
  EXPECT_EQ(ts.cache_evictions, 0u);
}

}  // namespace
}  // namespace runtime
}  // namespace wireframe
