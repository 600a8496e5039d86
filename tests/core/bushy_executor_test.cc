#include "core/bushy_executor.h"

#include <set>

#include <gtest/gtest.h>

#include "core/generator.h"
#include "core/wireframe.h"
#include "datagen/figures.h"
#include "datagen/synthetic.h"
#include "planner/edgifier.h"
#include "query/parser.h"
#include "query/shape.h"
#include "testutil/fixtures.h"

namespace wireframe {
namespace {

/// Generates the AG for a query (paper config) and returns it with stats.
std::unique_ptr<AnswerGraph> BuildAg(const Database& db, const Catalog& cat,
                                     const QueryGraph& q) {
  CardinalityEstimator est(cat);
  Edgifier edgifier(q, est);
  auto plan = edgifier.PlanEdgeOrder();
  EXPECT_TRUE(plan.ok());
  QueryShape shape = AnalyzeShape(q);
  if (!shape.acyclic) {
    Triangulator tri(q, est);
    auto chords = tri.Triangulate(shape);
    EXPECT_TRUE(chords.ok());
    plan->chords = std::move(chords->chords);
    plan->base_triangles = std::move(chords->base_triangles);
    plan->base_triangle_closing_edge =
        std::move(chords->base_triangle_closing_edge);
  }
  AgGenerator gen(db, cat);
  auto result = gen.Generate(q, *plan, GeneratorOptions{});
  EXPECT_TRUE(result.ok());
  result->ag->Freeze();  // phase 2 reads only the frozen form
  return std::move(result->ag);
}

std::set<std::vector<NodeId>> RunBushy(const Database& db, const Catalog& cat,
                                       const QueryGraph& q,
                                       DefactorizerStats* stats = nullptr) {
  auto ag = BuildAg(db, cat, q);
  BushyPlanner planner(q);
  auto plan = planner.Plan(ag->Stats());
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  BushyExecutor executor(q, *ag);
  CollectingSink sink;
  auto result = executor.Emit(*plan, &sink, BushyExecutorOptions{});
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (stats && result.ok()) *stats = result.value();
  return {sink.rows().begin(), sink.rows().end()};
}

std::set<std::vector<NodeId>> RunPipelinedWf(const Database& db,
                                             const Catalog& cat,
                                             const QueryGraph& q) {
  WireframeEngine engine;
  CollectingSink sink;
  auto stats = engine.Run(db, cat, q, EngineOptions{}, &sink);
  EXPECT_TRUE(stats.ok());
  return {sink.rows().begin(), sink.rows().end()};
}

using BushyExecutorFig1Test = testutil::Fig1Fixture;
using BushyExecutorFig4Test = testutil::Fig4Fixture;

TEST_F(BushyExecutorFig1Test, ChainMatchesPipelined) {
  DefactorizerStats stats;
  auto bushy = RunBushy(db_, cat_, query(), &stats);
  EXPECT_EQ(bushy.size(), kFig1Embeddings);
  EXPECT_EQ(bushy, RunPipelinedWf(db_, cat_, query()));
  EXPECT_EQ(stats.emitted, kFig1Embeddings);
}

TEST_F(BushyExecutorFig4Test, CyclicMatchesPipelined) {
  auto bushy = RunBushy(db_, cat_, query());
  EXPECT_EQ(bushy.size(), kFig4Embeddings);
  EXPECT_EQ(bushy, RunPipelinedWf(db_, cat_, query()));
}

// Property: bushy execution computes exactly the pipelined result on
// random graphs and queries of both shapes.
TEST(BushyExecutorTest, MatchesPipelinedOnRandomInstances) {
  Rng rng(8080);
  int done = 0;
  for (int trial = 0; trial < 40 && done < 25; ++trial) {
    QueryGraph q = MakeRandomQuery(rng, 2 + rng.Uniform(4), 5, 3);
    Database db = MakeRandomGraph(22, 3, 150, 7000 + trial);
    Catalog cat = Catalog::Build(db.store());
    ++done;
    EXPECT_EQ(RunBushy(db, cat, q), RunPipelinedWf(db, cat, q))
        << "trial " << trial;
  }
  EXPECT_GE(done, 25);
}

TEST(BushyExecutorTest, MemoryBudgetEnforced) {
  Database db = MakeChainBlowupGraph(60, 60, 0);
  Catalog cat = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }", db);
  ASSERT_TRUE(q.ok());
  auto ag = BuildAg(db, cat, *q);
  BushyPlanner planner(*q);
  auto plan = planner.Plan(ag->Stats());
  ASSERT_TRUE(plan.ok());
  BushyExecutor executor(*q, *ag);
  CountingSink sink;
  BushyExecutorOptions options;
  options.max_cells = 64;  // far below the 3600-embedding output
  auto result = executor.Emit(*plan, &sink, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(BushyExecutorTest, DeadlineEnforced) {
  Database db = MakeChainBlowupGraph(60, 60, 0);
  Catalog cat = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }", db);
  ASSERT_TRUE(q.ok());
  auto ag = BuildAg(db, cat, *q);
  BushyPlanner planner(*q);
  auto plan = planner.Plan(ag->Stats());
  ASSERT_TRUE(plan.ok());
  BushyExecutor executor(*q, *ag);
  CountingSink sink;
  EngineOptions run;
  run.deadline = Deadline::AlreadyExpired();
  auto result = executor.Emit(*plan, &sink, BushyExecutorOptions{}, run);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsTimedOut());
}

}  // namespace
}  // namespace wireframe
