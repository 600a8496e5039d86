#include <atomic>

#include <gtest/gtest.h>

#include "datagen/figures.h"
#include "datagen/synthetic.h"
#include "exec/baselines.h"
#include "exec/engine.h"
#include "query/parser.h"
#include "util/thread_pool.h"

namespace wireframe {
namespace {

TEST(EngineFactoryTest, MakesEveryPaperEngine) {
  for (const std::string& name : AllEngineNames()) {
    auto engine = MakeEngine(name);
    ASSERT_NE(engine, nullptr) << name;
    EXPECT_EQ(engine->name(), name);
  }
  EXPECT_EQ(MakeEngine("nope"), nullptr);
}

TEST(EngineFactoryTest, ColumnOrderMatchesPaper) {
  EXPECT_EQ(AllEngineNames(),
            (std::vector<std::string>{"PG", "WF", "VT", "MD", "NJ"}));
}

class AllEnginesFig1Test : public ::testing::TestWithParam<std::string> {
 protected:
  AllEnginesFig1Test()
      : db_(MakeFig1Graph()), cat_(Catalog::Build(db_.store())) {}
  Database db_;
  Catalog cat_;
};

TEST_P(AllEnginesFig1Test, TwelveEmbeddingsOnChain) {
  auto q = MakeFig1Query(db_);
  ASSERT_TRUE(q.ok());
  auto engine = MakeEngine(GetParam());
  CountingSink sink;
  auto stats = engine->Run(db_, cat_, *q, EngineOptions{}, &sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->output_tuples, kFig1Embeddings);
  EXPECT_EQ(sink.count(), kFig1Embeddings);
  EXPECT_GT(stats->edge_walks, 0u);
}

TEST_P(AllEnginesFig1Test, TwoEmbeddingsOnDiamond) {
  Database db = MakeFig4Graph();
  Catalog cat = Catalog::Build(db.store());
  auto q = MakeFig4Query(db);
  ASSERT_TRUE(q.ok());
  auto engine = MakeEngine(GetParam());
  CountingSink sink;
  auto stats = engine->Run(db, cat, *q, EngineOptions{}, &sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->output_tuples, kFig4Embeddings);
}

TEST_P(AllEnginesFig1Test, ExpiredDeadlineTimesOut) {
  auto q = MakeFig1Query(db_);
  ASSERT_TRUE(q.ok());
  auto engine = MakeEngine(GetParam());
  CountingSink sink;
  EngineOptions options;
  options.deadline = Deadline::AlreadyExpired();
  auto stats = engine->Run(db_, cat_, *q, options, &sink);
  // Tiny inputs may finish between deadline checks; both outcomes are
  // legal, but a failure must be TimedOut.
  if (!stats.ok()) {
    EXPECT_TRUE(stats.status().IsTimedOut());
  }
}

// A cancel flag raised before Run stops every engine before its first
// row, pipelined baselines included, inline and on a shared pool.
TEST_P(AllEnginesFig1Test, CancelRaisedBeforeRunStopsEveryEngine) {
  Database db = MakeChainBlowupGraph(60, 60, 30);
  Catalog cat = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }", db);
  ASSERT_TRUE(q.ok());
  auto engine = MakeEngine(GetParam());
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::atomic<bool> cancel{true};
    EngineOptions options;
    options.pool = p;
    options.cancel = &cancel;
    CountingSink sink;
    auto stats = engine->Run(db, cat, *q, options, &sink);
    const char* where = p == nullptr ? "inline" : "pool of 4";
    ASSERT_FALSE(stats.ok()) << where;
    EXPECT_TRUE(stats.status().IsCancelled())
        << where << ": " << stats.status().ToString();
    EXPECT_EQ(sink.count(), 0u) << where;
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, AllEnginesFig1Test,
                         ::testing::Values("PG", "WF", "VT", "MD", "NJ"),
                         [](const auto& info) { return info.param; });

TEST(BaselineRegimesTest, MaterializingEnginesReportPeakIntermediate) {
  Database db = MakeFig1Graph();
  Catalog cat = Catalog::Build(db.store());
  auto q = MakeFig1Query(db);
  ASSERT_TRUE(q.ok());
  for (const char* name : {"PG", "MD"}) {
    auto engine = MakeEngine(name);
    CountingSink sink;
    auto stats = engine->Run(db, cat, *q, EngineOptions{}, &sink);
    ASSERT_TRUE(stats.ok());
    EXPECT_GT(stats->peak_intermediate, 0u) << name;
  }
}

TEST(BaselineRegimesTest, PipelinedEnginesDoNotMaterialize) {
  Database db = MakeFig1Graph();
  Catalog cat = Catalog::Build(db.store());
  auto q = MakeFig1Query(db);
  ASSERT_TRUE(q.ok());
  for (const char* name : {"VT", "NJ"}) {
    auto engine = MakeEngine(name);
    CountingSink sink;
    auto stats = engine->Run(db, cat, *q, EngineOptions{}, &sink);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->peak_intermediate, 0u) << name;
  }
}

TEST(BaselineRegimesTest, OnlyWireframeReportsAgPairs) {
  Database db = MakeFig1Graph();
  Catalog cat = Catalog::Build(db.store());
  auto q = MakeFig1Query(db);
  ASSERT_TRUE(q.ok());
  for (const std::string& name : AllEngineNames()) {
    auto engine = MakeEngine(name);
    CountingSink sink;
    auto stats = engine->Run(db, cat, *q, EngineOptions{}, &sink);
    ASSERT_TRUE(stats.ok());
    if (name == "WF") {
      EXPECT_EQ(stats->ag_pairs, kFig1IdealAgEdges);
    } else {
      EXPECT_EQ(stats->ag_pairs, 0u) << name;
    }
  }
}

}  // namespace
}  // namespace wireframe
