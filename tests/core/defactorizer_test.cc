#include "core/defactorizer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "query/templates.h"

namespace wireframe {
namespace {

// Builds the Fig. 1 ideal AG by hand: A: {1,2,3}->5, B: 5->9, C: 9->{12..15}.
// Tests that edit the AG further freeze it themselves; phase 2 reads only
// the frozen form.
struct ChainFixture {
  QueryGraph q = ChainTemplate(3).Instantiate({0, 1, 2});
  AnswerGraph ag{q};

  explicit ChainFixture(bool freeze = true,
                        const std::vector<NodeId>& a_sources = {1, 2, 3}) {
    std::vector<std::pair<NodeId, NodeId>> a;
    for (NodeId w : a_sources) a.emplace_back(w, 5);
    ag.Materialize(0, std::move(a));
    ag.Materialize(1, {{5, 9}});
    ag.Materialize(2, {{9, 12}, {9, 13}, {9, 14}, {9, 15}});
    if (freeze) ag.Freeze();
  }
};

EmbeddingPlan PlanOrder(std::vector<uint32_t> order) {
  EmbeddingPlan plan;
  plan.join_order = std::move(order);
  return plan;
}

TEST(DefactorizerTest, EnumeratesAllEmbeddings) {
  ChainFixture f;
  Defactorizer defac(f.q, f.ag);
  CollectingSink sink;
  auto n = defac.Emit(PlanOrder({0, 1, 2}), &sink, DefactorizerOptions{});
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.value().emitted, 12u);
  EXPECT_EQ(sink.rows().size(), 12u);
  // Every row binds all four vars.
  for (const auto& row : sink.rows()) {
    ASSERT_EQ(row.size(), 4u);
    for (NodeId v : row) EXPECT_NE(v, kInvalidNode);
  }
}

TEST(DefactorizerTest, JoinOrderIsImmaterialOverIdealAg) {
  ChainFixture f;
  Defactorizer defac(f.q, f.ag);
  std::set<std::vector<NodeId>> reference;
  {
    CollectingSink sink;
    ASSERT_TRUE(
        defac.Emit(PlanOrder({0, 1, 2}), &sink, DefactorizerOptions{}).ok());
    reference.insert(sink.rows().begin(), sink.rows().end());
  }
  for (const std::vector<uint32_t>& order :
       {std::vector<uint32_t>{2, 1, 0}, {1, 0, 2}, {1, 2, 0}, {2, 1, 0}}) {
    CollectingSink sink;
    ASSERT_TRUE(defac.Emit(PlanOrder(order), &sink, DefactorizerOptions{})
                    .ok());
    std::set<std::vector<NodeId>> got(sink.rows().begin(),
                                      sink.rows().end());
    EXPECT_EQ(got, reference);
  }
}

TEST(DefactorizerTest, BothEndpointsBoundFilters) {
  // 2-cycle: x -0-> y and x -1-> y; second edge acts as a filter.
  QueryGraph q;
  VarId x = q.AddVar("x"), y = q.AddVar("y");
  q.AddEdge(x, 0, y);
  q.AddEdge(x, 1, y);
  AnswerGraph ag(q);
  ag.Materialize(0, {{1, 10}, {2, 20}});
  ag.Materialize(1, {{1, 10}});  // only (1,10) survives the second pattern
  ag.Freeze();
  Defactorizer defac(q, ag);
  CollectingSink sink;
  auto n = defac.Emit(PlanOrder({0, 1}), &sink, DefactorizerOptions{});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value().emitted, 1u);
  EXPECT_EQ(sink.rows()[0], (std::vector<NodeId>{1, 10}));
}

TEST(DefactorizerTest, BackwardExtension) {
  // Plan visits edge 1 first, then edge 0 must extend backwards into v0.
  ChainFixture f;
  Defactorizer defac(f.q, f.ag);
  CountingSink sink;
  auto n = defac.Emit(PlanOrder({1, 0, 2}), &sink, DefactorizerOptions{});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value().emitted, 12u);
}

TEST(DefactorizerTest, EmptyAgYieldsNothing) {
  QueryGraph q = ChainTemplate(2).Instantiate({0, 1});
  AnswerGraph ag(q);
  ag.Materialize(0, {});
  ag.Materialize(1, {});
  ag.Freeze();
  Defactorizer defac(q, ag);
  CountingSink sink;
  auto n = defac.Emit(PlanOrder({0, 1}), &sink, DefactorizerOptions{});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value().emitted, 0u);
}

TEST(DefactorizerTest, SinkCanStopEarly) {
  ChainFixture f;
  Defactorizer defac(f.q, f.ag);
  LimitSink sink(5);
  auto n = defac.Emit(PlanOrder({0, 1, 2}), &sink, DefactorizerOptions{});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(sink.count(), 5u);
  EXPECT_LE(n.value().emitted, 6u);
}

TEST(DefactorizerTest, ExpiredDeadlineTimesOut) {
  // The deadline is checked on a stride; tiny outputs may finish first,
  // so force many tuples through a bigger AG.
  std::vector<NodeId> a_sources = {1, 2, 3};
  for (NodeId w = 100; w < 3000; ++w) a_sources.push_back(w);
  ChainFixture f(/*freeze=*/true, a_sources);
  CountingSink sink;
  EngineOptions run;
  run.deadline = Deadline::AlreadyExpired();
  Defactorizer defac(f.q, f.ag);
  auto n =
      defac.Emit(PlanOrder({0, 1, 2}), &sink, DefactorizerOptions{}, run);
  ASSERT_FALSE(n.ok());
  EXPECT_TRUE(n.status().IsTimedOut());
}

TEST(DefactorizerTest, TombstonedPairsAreSkipped) {
  ChainFixture f(/*freeze=*/false);
  f.ag.Set(2).Erase(9, 15);
  f.ag.Freeze();
  Defactorizer defac(f.q, f.ag);
  CountingSink sink;
  auto n = defac.Emit(PlanOrder({0, 1, 2}), &sink, DefactorizerOptions{});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value().emitted, 9u);  // 3 * 1 * 3
}

// --- Batched output: stats are invariant across thread counts and equal
// what per-candidate extension counts. ---

struct PhaseTwoRun {
  DefactorizerStats stats;
  std::multiset<std::vector<NodeId>> rows;
};

PhaseTwoRun RunPhaseTwo(const QueryGraph& q, const AnswerGraph& ag,
                        const EmbeddingPlan& plan, ThreadPool* pool) {
  Defactorizer defac(q, ag);
  CollectingSink sink;
  EngineOptions options;
  options.pool = pool;
  auto stats = defac.Emit(plan, &sink, DefactorizerOptions{}, options);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  PhaseTwoRun run;
  if (stats.ok()) run.stats = stats.value();
  run.rows = {sink.rows().begin(), sink.rows().end()};
  return run;
}

/// True iff `row` binds every variable and every materialized edge set
/// (query edges and chords) holds the row's pair.
bool IsEmbedding(const AnswerGraph& ag, const std::vector<NodeId>& row) {
  for (uint32_t s = 0; s < ag.NumEdgeSets(); ++s) {
    if (!ag.IsMaterialized(s)) continue;
    const NodeId u = row[ag.SrcVar(s)];
    const NodeId v = row[ag.DstVar(s)];
    if (u == kInvalidNode || v == kInvalidNode) return false;
    if (!ag.Set(s).Contains(u, v)) return false;
  }
  return true;
}

/// The counters are pinned as literals (extensions: skeleton binding
/// attempts + leaf spans fetched + rows written by leaf products).
/// Rows: the threads=1 run yields `expected.emitted` distinct rows, each
/// a valid embedding (so it is exactly the embedding set), and threads=4
/// yields the same multiset.
void ExpectInvariantStats(const QueryGraph& q, AnswerGraph& ag,
                          const EmbeddingPlan& plan,
                          const DefactorizerStats& expected) {
  ag.Freeze();
  const PhaseTwoRun reference = RunPhaseTwo(q, ag, plan, nullptr);
  EXPECT_EQ(std::set<std::vector<NodeId>>(reference.rows.begin(),
                                          reference.rows.end())
                .size(),
            reference.rows.size())
      << "duplicate rows";
  for (const std::vector<NodeId>& row : reference.rows) {
    ASSERT_TRUE(IsEmbedding(ag, row));
  }
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const PhaseTwoRun run = RunPhaseTwo(q, ag, plan, p);
    const char* label = p == nullptr ? "threads=1" : "threads=4";
    EXPECT_EQ(run.stats.emitted, expected.emitted) << label;
    EXPECT_EQ(run.stats.emitted, run.rows.size()) << label;
    EXPECT_EQ(run.stats.extensions, expected.extensions) << label;
    EXPECT_EQ(run.stats.chord_rejections, expected.chord_rejections)
        << label;
    EXPECT_EQ(run.rows, reference.rows) << label;
  }
}

DefactorizerStats Expected(uint64_t emitted, uint64_t extensions,
                           uint64_t chord_rejections) {
  DefactorizerStats stats;
  stats.emitted = emitted;
  stats.extensions = extensions;
  stats.chord_rejections = chord_rejections;
  return stats;
}

/// Snowflake around c: c -0-> a, c -1-> b, c -2-> d, a -3-> e, plus an
/// incoming f -4-> c. Skewed fan-outs put thousands of rows through
/// many batches and root morsels.
QueryGraph SnowflakeQuery() {
  QueryGraph q;
  const VarId c = q.AddVar("c"), a = q.AddVar("a"), b = q.AddVar("b");
  const VarId d = q.AddVar("d"), e = q.AddVar("e"), f = q.AddVar("f");
  q.AddEdge(c, 0, a);
  q.AddEdge(c, 1, b);
  q.AddEdge(c, 2, d);
  q.AddEdge(a, 3, e);
  q.AddEdge(f, 4, c);
  return q;
}

void FillSnowflake(AnswerGraph& ag) {
  std::vector<std::vector<std::pair<NodeId, NodeId>>> sets(5);
  for (NodeId c = 0; c < 150; ++c) {
    for (NodeId i = 0; i < 3; ++i) sets[0].emplace_back(c, 1000 + c * 3 + i);
    for (NodeId i = 0; i <= c % 4; ++i) sets[1].emplace_back(c, 2000 + i);
    for (NodeId i = 0; i < 2; ++i) sets[2].emplace_back(c, 3000 + (c + i) % 7);
    for (NodeId i = 0; i <= c % 3; ++i) sets[4].emplace_back(5000 + i, c);
  }
  for (NodeId a = 1000; a < 1450; ++a) {
    for (NodeId i = 0; i <= a % 3; ++i) sets[3].emplace_back(a, 4000 + i);
  }
  for (uint32_t e = 0; e < 5; ++e) ag.Materialize(e, std::move(sets[e]));
}

TEST(DefactorizerBatchTest, SnowflakeStatsMatchAcrossThreadCounts) {
  const QueryGraph q = SnowflakeQuery();
  // The skeleton is c -0-> a alone; the other four edges are leaves
  // (f -4-> c extends backward). Either order enumerates 450 roots,
  // fetches 4 leaf spans per root and writes 8952 product rows.
  {
    AnswerGraph ag(q);
    FillSnowflake(ag);
    ExpectInvariantStats(q, ag, PlanOrder({4, 0, 1, 2, 3}),
                         Expected(8952, 450 + 4 * 450 + 8952, 0));
  }
  {
    AnswerGraph ag(q);
    FillSnowflake(ag);
    ExpectInvariantStats(q, ag, PlanOrder({0, 1, 2, 3, 4}),
                         Expected(8952, 450 + 4 * 450 + 8952, 0));
  }
}

TEST(DefactorizerBatchTest, ProductRowsFollowTheLeafOrder) {
  // One skeleton binding, two leaves: the last leaf in the plan varies
  // fastest, as depth-first recursion over the same order would.
  QueryGraph q = StarTemplate(3).Instantiate({0, 1, 2});
  AnswerGraph ag(q);
  ag.Materialize(0, {{1, 10}});
  ag.Materialize(1, {{1, 20}, {1, 21}});
  ag.Materialize(2, {{1, 30}, {1, 31}, {1, 32}});
  ag.Freeze();
  Defactorizer defac(q, ag);
  CollectingSink sink;
  ASSERT_TRUE(
      defac.Emit(PlanOrder({0, 2, 1}), &sink, DefactorizerOptions{}).ok());
  std::vector<std::vector<NodeId>> expected;
  for (NodeId l2 : {30, 31, 32}) {
    for (NodeId l1 : {20, 21}) expected.push_back({1, 10, l1, l2});
  }
  EXPECT_EQ(sink.rows(), expected);
}

TEST(DefactorizerBatchTest, EmptyLeafSpanPrunesTheSkeletonBinding) {
  // x -0-> y -1-> z with a leaf y -2-> w that only y=6 has: the binding
  // y=5 is cut when y binds, before z is enumerated.
  QueryGraph q;
  const VarId x = q.AddVar("x"), y = q.AddVar("y");
  const VarId z = q.AddVar("z"), w = q.AddVar("w");
  const VarId t = q.AddVar("t");
  q.AddEdge(x, 0, y);
  q.AddEdge(y, 1, z);
  q.AddEdge(y, 2, w);
  q.AddEdge(z, 3, t);
  q.AddEdge(x, 4, t);
  AnswerGraph ag(q);
  ag.Materialize(0, {{1, 5}, {1, 6}});
  ag.Materialize(1, {{5, 7}, {6, 7}});
  ag.Materialize(2, {{6, 9}});
  ag.Materialize(3, {{7, 8}});
  ag.Materialize(4, {{1, 8}});
  // 2 roots + 2 leaf spans (one empty) + y=6's walk to z, t and the
  // closing x -4-> t check (3) + 1 product row. Without the prune, y=5
  // would walk y -1-> z as well.
  ExpectInvariantStats(q, ag, PlanOrder({0, 1, 2, 3, 4}),
                       Expected(1, 2 + 2 + 3 + 1, 0));
}

TEST(DefactorizerBatchTest, RowsWiderThanTheTemplateMatchAcrossThreads) {
  // 18 variables: past the 16-word row template, rows take the plain
  // copy. Arms 3, 6, 9, 12 and 15 hold two values, the others one.
  const uint32_t arms = 17;
  std::vector<LabelId> labels(arms);
  for (uint32_t i = 0; i < arms; ++i) labels[i] = i;
  const QueryGraph q = StarTemplate(arms).Instantiate(labels);
  ASSERT_GT(q.NumVars(), 16u);
  AnswerGraph ag(q);
  ag.Materialize(0, {{1, 100}});
  for (uint32_t e = 1; e < arms; ++e) {
    std::vector<std::pair<NodeId, NodeId>> arm = {{1, 1000 * e}};
    if (e % 3 == 0) arm.emplace_back(1, 1000 * e + 1);
    ag.Materialize(e, std::move(arm));
  }
  std::vector<uint32_t> order(arms);
  for (uint32_t e = 0; e < arms; ++e) order[e] = e;
  // 1 root + 16 leaf spans + 2^5 product rows.
  ExpectInvariantStats(q, ag, PlanOrder(order), Expected(32, 1 + 16 + 32, 0));
}

TEST(DefactorizerBatchTest, DiamondWithChordAtLastDepthMatchesAcrossThreads) {
  // x -0-> y -2-> w and x -1-> z, closed by the materialized chord z~w:
  // under order {0, 1, 2} the last depth binds w, constrained by the
  // chord from the already-bound z — the chord-intersected leaf span.
  QueryGraph q;
  const VarId x = q.AddVar("x"), y = q.AddVar("y");
  const VarId z = q.AddVar("z"), w = q.AddVar("w");
  q.AddEdge(x, 0, y);
  q.AddEdge(x, 1, z);
  q.AddEdge(y, 2, w);
  AnswerGraph ag(q);
  const uint32_t chord = ag.AddChordSlot(z, w);
  std::vector<std::vector<std::pair<NodeId, NodeId>>> sets(
      ag.NumEdgeSets());
  for (NodeId xv = 0; xv < 120; ++xv) {
    for (NodeId i = 0; i < 3; ++i) {
      sets[0].emplace_back(xv, 500 + (xv + i) % 40);
      sets[1].emplace_back(xv, 600 + (xv * 7 + i) % 30);
    }
  }
  for (NodeId yv = 500; yv < 540; ++yv) {
    for (NodeId i = 0; i < 5; ++i) {
      sets[2].emplace_back(yv, 700 + (yv + i) % 25);
    }
  }
  for (NodeId zv = 600; zv < 630; ++zv) {
    for (NodeId wv = 700; wv < 725; ++wv) {
      if ((zv + wv) % 3 != 0) sets[chord].emplace_back(zv, wv);
    }
  }
  for (uint32_t e = 0; e < ag.NumEdgeSets(); ++e) {
    ag.Materialize(e, std::move(sets[e]));
  }
  // 1800 rejections: the chord bites.
  ExpectInvariantStats(q, ag, PlanOrder({0, 1, 2}),
                       Expected(3600, 6840, 1800));
}

// --- Product-path interrupts: one skeleton binding expands to 262,144
// rows, so cancel, deadline and sink declines must stop the product
// itself, within one batch. ---

/// Rows per defactorizer output batch.
constexpr uint64_t kBatchRows = 256;

/// A star whose root edge holds one pair and whose three other arms are
/// 64-wide leaves: 64^3 rows from a single skeleton binding.
struct WideStar {
  QueryGraph q = StarTemplate(4).Instantiate({0, 1, 2, 3});
  AnswerGraph ag{q};

  WideStar() {
    ag.Materialize(0, {{1, 2}});
    for (uint32_t e = 1; e < 4; ++e) {
      std::vector<std::pair<NodeId, NodeId>> arm;
      for (NodeId i = 0; i < 64; ++i) arm.emplace_back(1, 1000 * e + i);
      ag.Materialize(e, std::move(arm));
    }
    ag.Freeze();
  }

  Result<DefactorizerStats> Emit(Sink* sink, const EngineOptions& run) const {
    return Defactorizer(q, ag).Emit(PlanOrder({0, 1, 2, 3}), sink,
                                    DefactorizerOptions{}, run);
  }
};

/// Raises a cancel flag when it receives its first batch, and accepts it.
class CancelOnFirstBatchSink : public Sink {
 public:
  explicit CancelOnFirstBatchSink(std::atomic<bool>* cancel)
      : cancel_(cancel) {}
  bool Emit(const std::vector<NodeId>&) override {
    cancel_->store(true);
    ++count_;
    return true;
  }
  bool EmitBatch(const NodeId*, size_t n, size_t) override {
    cancel_->store(true);
    count_ += n;
    return true;
  }
  uint64_t count() const override { return count_; }

 private:
  std::atomic<bool>* cancel_;
  uint64_t count_ = 0;
};

TEST(DefactorizerProductTest, WideStarEmitsTheFullProduct) {
  WideStar star;
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    CountingSink sink;
    EngineOptions run;
    run.pool = p;
    auto stats = star.Emit(&sink, run);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->emitted, 262144u);
    // One root, three leaf spans, one extension per product row.
    EXPECT_EQ(stats->extensions, 1u + 3u + 262144u);
  }
}

TEST(DefactorizerProductTest, CancelRaisedBySinkStopsTheProduct) {
  WideStar star;
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::atomic<bool> cancel{false};
    CancelOnFirstBatchSink sink(&cancel);
    EngineOptions run;
    run.pool = p;
    run.cancel = &cancel;
    auto stats = star.Emit(&sink, run);
    ASSERT_FALSE(stats.ok());
    EXPECT_TRUE(stats.status().IsCancelled()) << stats.status().ToString();
    EXPECT_LE(sink.count(), kBatchRows);
  }
}

TEST(DefactorizerProductTest, LimitSinkStopsWithExactlyItsRows) {
  WideStar star;
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    LimitSink sink(1000);
    EngineOptions run;
    run.pool = p;
    auto stats = star.Emit(&sink, run);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(sink.count(), 1000u);
    EXPECT_EQ(stats->emitted, 1000u);
  }
}

TEST(DefactorizerProductTest, RowsMadePastADeclineStayWithinOneBatch) {
  WideStar star;
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const uint64_t contexts = p == nullptr ? 1 : p->num_threads();
    for (const uint64_t limit : {1u, 1000u}) {
      LimitSink sink(limit);
      EngineOptions run;
      run.pool = p;
      auto stats = star.Emit(&sink, run);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      // extensions = 1 root + 3 leaf spans + the rows the product made.
      const uint64_t made = stats->extensions - 4;
      EXPECT_GE(made, stats->emitted);
      EXPECT_LE(made - stats->emitted, kBatchRows * contexts)
          << "limit " << limit;
    }
  }
}

/// Holds its first batch until `deadline` has expired, then accepts it.
class HoldUntilDeadlineSink : public Sink {
 public:
  explicit HoldUntilDeadlineSink(Deadline deadline) : deadline_(deadline) {}
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
    while (!deadline_.Expired()) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  Deadline deadline_;
  uint64_t count_ = 0;
};

TEST(DefactorizerProductTest, DeadlinePassingMidProductStopsIt) {
  WideStar star;
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    EngineOptions run;
    run.pool = p;
    run.deadline = Deadline::AfterSeconds(0.01);
    HoldUntilDeadlineSink sink(run.deadline);
    auto stats = star.Emit(&sink, run);
    ASSERT_FALSE(stats.ok());
    EXPECT_TRUE(stats.status().IsTimedOut()) << stats.status().ToString();
    EXPECT_LE(sink.count(), kBatchRows);
  }
}

}  // namespace
}  // namespace wireframe
