#include "core/wireframe.h"

#include <atomic>

#include <gtest/gtest.h>

#include "catalog/estimator.h"
#include "core/burnback.h"
#include "core/chords.h"
#include "datagen/figures.h"
#include "datagen/synthetic.h"
#include "planner/edgifier.h"
#include "planner/triangulator.h"
#include "query/parser.h"
#include "query/shape.h"
#include "testutil/fixtures.h"
#include "util/thread_pool.h"

namespace wireframe {
namespace {

class WireframeFig1Test : public testutil::Fig1Fixture {};

TEST_F(WireframeFig1Test, ProducesTwelveEmbeddings) {
  WireframeEngine engine;
  CountingSink sink;
  auto stats = engine.Run(db_, cat_, query(), EngineOptions{}, &sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->output_tuples, kFig1Embeddings);
  EXPECT_EQ(stats->ag_pairs, kFig1IdealAgEdges);
  EXPECT_EQ(sink.count(), kFig1Embeddings);
}

TEST_F(WireframeFig1Test, DetailedRunExposesPhases) {
  WireframeEngine engine;
  CountingSink sink;
  auto detail = engine.RunDetailed(db_, cat_, query(), EngineOptions{}, &sink);
  ASSERT_TRUE(detail.ok());
  EXPECT_FALSE(detail->cyclic);
  EXPECT_GE(detail->plan_seconds, 0.0);
  EXPECT_GE(detail->stats.phase1_seconds, 0.0);
  EXPECT_GE(detail->stats.phase2_seconds, 0.0);
  ASSERT_NE(detail->ag, nullptr);
  EXPECT_EQ(detail->ag->TotalQueryEdgePairs(), kFig1IdealAgEdges);
  EXPECT_EQ(detail->ag_plan.edge_order.size(), 3u);
  EXPECT_EQ(detail->embedding_plan.join_order.size(), 3u);
}

TEST_F(WireframeFig1Test, ExplainRendersBothShapeAndPlan) {
  WireframeEngine engine;
  auto text = engine.Explain(db_, cat_, query());
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("shape: acyclic"), std::string::npos);
  EXPECT_NE(text->find("AG plan"), std::string::npos);
}

class WireframeFig4Test : public testutil::Fig4Fixture {
 protected:
  uint64_t CountEmbeddings(WireframeOptions options, uint64_t* ag_pairs) {
    WireframeEngine engine(options);
    CountingSink sink;
    auto stats = engine.Run(db_, cat_, query(), EngineOptions{}, &sink);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    if (ag_pairs) *ag_pairs = stats->ag_pairs;
    return stats->output_tuples;
  }
};

TEST_F(WireframeFig4Test, CyclicEmbeddingsCorrectInAllModes) {
  for (bool triangulate : {false, true}) {
    for (bool edge_burnback : {false, true}) {
      if (edge_burnback && !triangulate) continue;  // needs triangles
      WireframeOptions options;
      options.triangulate = triangulate;
      options.edge_burnback = edge_burnback;
      uint64_t ag_pairs = 0;
      EXPECT_EQ(CountEmbeddings(options, &ag_pairs), kFig4Embeddings)
          << "triangulate=" << triangulate
          << " edge_burnback=" << edge_burnback;
      EXPECT_EQ(ag_pairs, edge_burnback ? kFig4IdealAgEdges
                                        : kFig4NodeBurnbackAgEdges);
    }
  }
}

TEST_F(WireframeFig4Test, DetailedRunFlagsCyclic) {
  WireframeEngine engine;
  CountingSink sink;
  auto detail = engine.RunDetailed(db_, cat_, query(), EngineOptions{}, &sink);
  ASSERT_TRUE(detail.ok());
  EXPECT_TRUE(detail->cyclic);
  EXPECT_EQ(detail->ag_plan.chords.size(), 1u);
  EXPECT_GT(detail->chord_pairs, 0u);
}

TEST_F(WireframeFig4Test, ChordFiltersCutDeadBranchesInPhase2) {
  // Paper configuration (no edge burnback): the AG keeps the two spurious
  // D pairs; the chord filter must reject them during defactorization.
  WireframeOptions with, without;
  with.chords_in_phase2 = true;
  without.chords_in_phase2 = false;

  WireframeEngine engine_with(with), engine_without(without);
  CountingSink s1, s2;
  auto d1 = engine_with.RunDetailed(db_, cat_, query(), EngineOptions{}, &s1);
  auto d2 =
      engine_without.RunDetailed(db_, cat_, query(), EngineOptions{}, &s2);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(d1->phase2_stats.emitted, kFig4Embeddings);
  EXPECT_EQ(d2->phase2_stats.emitted, kFig4Embeddings);
  EXPECT_EQ(d2->phase2_stats.chord_rejections, 0u);
  // With filtering, dead branches are cut strictly earlier.
  EXPECT_LE(d1->phase2_stats.extensions, d2->phase2_stats.extensions);
}

TEST_F(WireframeFig1Test, BushyModeMatchesPipelined) {
  WireframeOptions options;
  options.bushy_phase2 = true;
  WireframeEngine engine(options);
  CountingSink sink;
  auto detail = engine.RunDetailed(db_, cat_, query(), EngineOptions{}, &sink);
  ASSERT_TRUE(detail.ok());
  EXPECT_TRUE(detail->used_bushy);
  EXPECT_EQ(detail->phase2_stats.emitted, kFig1Embeddings);
  EXPECT_EQ(detail->stats.ag_pairs, kFig1IdealAgEdges);
}

TEST(WireframeEngineTest, BushyFallsBackOnWideQueries) {
  // 14-edge chain exceeds the bushy DP cap; the engine must fall back to
  // the pipelined defactorizer and still answer.
  DatabaseBuilder b;
  for (int i = 0; i < 15; ++i) {
    b.Add("n" + std::to_string(i), "p" + std::to_string(i),
          "n" + std::to_string(i + 1));
  }
  Database db = std::move(b).Build();
  Catalog cat = Catalog::Build(db.store());
  QueryGraph q;
  for (int i = 0; i <= 14; ++i) q.AddVar("v" + std::to_string(i));
  for (uint32_t i = 0; i < 14; ++i) q.AddEdge(i, i, i + 1);

  WireframeOptions options;
  options.bushy_phase2 = true;
  WireframeEngine engine(options);
  CountingSink sink;
  auto detail = engine.RunDetailed(db, cat, q, EngineOptions{}, &sink);
  ASSERT_TRUE(detail.ok()) << detail.status().ToString();
  EXPECT_FALSE(detail->used_bushy);
  EXPECT_EQ(detail->phase2_stats.emitted, 1u);
}

TEST(WireframeEngineTest, TimesOutOnExpiredDeadline) {
  Database db = MakeChainBlowupGraph(60, 60, 30);
  Catalog cat = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }", db);
  ASSERT_TRUE(q.ok());
  WireframeEngine engine;
  CountingSink sink;
  EngineOptions options;
  options.deadline = Deadline::AlreadyExpired();
  auto stats = engine.Run(db, cat, *q, options, &sink);
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsTimedOut());
}

TEST(WireframeEngineTest, DisconnectedQueryRejected) {
  Database db = MakeFig1Graph();
  Catalog cat = Catalog::Build(db.store());
  QueryGraph q;
  VarId a = q.AddVar("a"), b = q.AddVar("b");
  VarId c = q.AddVar("c"), d = q.AddVar("d");
  q.AddEdge(a, 0, b);
  q.AddEdge(c, 1, d);
  WireframeEngine engine;
  CountingSink sink;
  auto stats = engine.Run(db, cat, q, EngineOptions{}, &sink);
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsInvalidArgument());
}

// A cancel flag raised before the run makes it return kCancelled at every
// pool size. On a one-thread pool the morsel loops run inline, so
// ParallelFor's per-morsel check is what serves the flag there too. Each
// case also runs phase 2 alone (RunOverAg over the uncancelled run's
// frozen AG), so the defactorizer, the bushy executor and the counting DP
// each see the raised flag themselves.
TEST(WireframeEngineTest, CancelFlagStopsEveryStage) {
  Database chain = MakeChainBlowupGraph(60, 60, 30);
  Catalog chain_cat = Catalog::Build(chain.store());
  Database square = MakeRandomGraph(80, 3, 6000, 777);
  Catalog square_cat = Catalog::Build(square.store());
  const char* const kChain =
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }";
  const char* const kSquare =
      "select * where { ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . }";
  struct Case {
    const char* what;
    const Database* db;
    const Catalog* cat;
    const char* text;
    bool bushy;
  };
  const Case cases[] = {
      {"acyclic select", &chain, &chain_cat, kChain, false},
      {"cyclic select", &square, &square_cat, kSquare, false},
      {"bushy select", &chain, &chain_cat, kChain, true},
      {"count", &chain, &chain_cat,
       "select (count(*) as ?c) where { ?w A ?x . ?x B ?y . ?y C ?z . }",
       false},
  };
  for (const Case& c : cases) {
    auto q = SparqlParser::ParseAndBind(c.text, *c.db);
    ASSERT_TRUE(q.ok()) << c.what << ": " << q.status().ToString();
    WireframeOptions wf_options;
    wf_options.bushy_phase2 = c.bushy;
    WireframeEngine engine(wf_options);

    // Uncancelled, the query reaches the stage the case is about.
    CountingSink reference_sink;
    auto reference = engine.RunDetailed(*c.db, *c.cat, *q, EngineOptions{},
                                        &reference_sink);
    ASSERT_TRUE(reference.ok()) << c.what;
    EXPECT_GT(reference->stats.ag_pairs, 0u) << c.what;
    if (c.db == &square) {
      EXPECT_GT(reference->chord_pairs, 0u) << c.what;
    }
    EXPECT_EQ(reference->used_bushy, c.bushy) << c.what;
    if (reference->has_aggregate) {
      EXPECT_TRUE(reference->aggregate.factorized) << c.what;
    }

    for (uint32_t threads : {1u, 4u}) {
      std::atomic<bool> cancel{true};
      EngineOptions options;
      ThreadPool pool(threads);
      options.pool = &pool;
      options.cancel = &cancel;
      CountingSink sink;
      auto run = engine.Run(*c.db, *c.cat, *q, options, &sink);
      ASSERT_FALSE(run.ok()) << c.what << " threads " << threads;
      EXPECT_TRUE(run.status().IsCancelled())
          << c.what << " threads " << threads << ": "
          << run.status().ToString();
      auto phase2 = engine.RunOverAg(*q, *reference->ag, options, &sink);
      ASSERT_FALSE(phase2.ok()) << c.what << " threads " << threads;
      EXPECT_TRUE(phase2.status().IsCancelled())
          << c.what << " phase 2, threads " << threads << ": "
          << phase2.status().ToString();
      EXPECT_EQ(sink.count(), 0u) << c.what << " threads " << threads;
    }
  }

  // Chord materialization alone: the square's query edges generated
  // without chords, then its chords materialized under a raised flag.
  auto q = SparqlParser::ParseAndBind(kSquare, square);
  ASSERT_TRUE(q.ok());
  CardinalityEstimator estimator(square_cat);
  auto plan = Edgifier(*q, estimator).PlanEdgeOrder();
  ASSERT_TRUE(plan.ok());
  auto chords = Triangulator(*q, estimator).Triangulate(AnalyzeShape(*q));
  ASSERT_TRUE(chords.ok());
  ASSERT_FALSE(chords->chords.empty());
  GeneratorOptions gen_options;
  gen_options.triangulate = false;
  auto gen = AgGenerator(square, square_cat).Generate(*q, *plan, gen_options);
  ASSERT_TRUE(gen.ok());
  Burnback burnback(gen->ag.get());
  ChordEvaluator evaluator(*chords, gen->ag.get(), &burnback);
  evaluator.RegisterChordSlots();
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::atomic<bool> cancel{true};
    EngineOptions options;
    options.pool = p;
    options.cancel = &cancel;
    uint64_t walks = 0;
    const Status st = evaluator.MaterializeChords(&walks, options);
    EXPECT_TRUE(st.IsCancelled()) << st.ToString();
    EXPECT_EQ(walks, 0u);
  }
}

TEST(WireframeEngineTest, FactorizationRatioGrowsWithFanout) {
  // |embeddings| / |AG| must scale with fan_in x fan_out on the blow-up
  // chain — the Fig. 1 claim, quantified.
  for (uint32_t fan : {5u, 20u, 50u}) {
    Database db = MakeChainBlowupGraph(fan, fan, 5);
    Catalog cat = Catalog::Build(db.store());
    auto q = SparqlParser::ParseAndBind(
        "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }", db);
    ASSERT_TRUE(q.ok());
    WireframeEngine engine;
    CountingSink sink;
    auto stats = engine.Run(db, cat, *q, EngineOptions{}, &sink);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->output_tuples, static_cast<uint64_t>(fan) * fan);
    EXPECT_EQ(stats->ag_pairs, 2ull * fan + 1);
  }
}

}  // namespace
}  // namespace wireframe
