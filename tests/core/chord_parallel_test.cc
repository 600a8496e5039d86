// Chord-parallel equivalence: materializing chords sharded over endpoint
// candidates (like regular edge extension) must produce exactly the chord
// sets, |AG|, and embeddings of the serial path, for every thread count.

#include <atomic>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/estimator.h"
#include "core/generator.h"
#include "core/wireframe.h"
#include "datagen/synthetic.h"
#include "query/parser.h"
#include "query/shape.h"
#include "testutil/fixtures.h"
#include "util/thread_pool.h"

namespace wireframe {
namespace {

struct ChordRun {
  std::set<std::vector<NodeId>> rows;
  uint64_t ag_pairs = 0;
  uint64_t chord_pairs = 0;
  bool cyclic = false;
};

ChordRun RunWf(const Database& db, const Catalog& cat, const QueryGraph& q,
               uint32_t threads) {
  WireframeEngine engine;
  CollectingSink sink;
  EngineOptions options;
  ThreadPool pool(threads);
  options.pool = &pool;
  auto detail = engine.RunDetailed(db, cat, q, options, &sink);
  EXPECT_TRUE(detail.ok()) << detail.status().ToString();
  ChordRun run;
  run.rows = {sink.rows().begin(), sink.rows().end()};
  if (detail.ok()) {
    run.ag_pairs = detail->stats.ag_pairs;
    run.chord_pairs = detail->chord_pairs;
    run.cyclic = detail->cyclic;
  }
  return run;
}

using ChordParallelFig4Test = testutil::Fig4Fixture;

TEST_F(ChordParallelFig4Test, Fig4ChordAgreesAcrossThreadCounts) {
  const ChordRun serial = RunWf(db_, cat_, query(), 1);
  EXPECT_TRUE(serial.cyclic);
  for (uint32_t threads : {2u, 4u}) {
    const ChordRun parallel = RunWf(db_, cat_, query(), threads);
    EXPECT_EQ(parallel.rows, serial.rows) << "threads=" << threads;
    EXPECT_EQ(parallel.ag_pairs, serial.ag_pairs);
    EXPECT_EQ(parallel.chord_pairs, serial.chord_pairs);
  }
}

// A 4-cycle over a dense random graph: the chord's first-triangle
// frontier spans many morsels, so real cross-thread sharding (not the
// inline fallback) is exercised, including the intersection pass.
TEST(ChordParallelTest, DenseSquareSpansManyMorsels) {
  Database db = MakeRandomGraph(80, 3, 6000, 777);
  Catalog cat = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . }", db);
  ASSERT_TRUE(q.ok());
  ASSERT_FALSE(IsAcyclic(*q));

  const ChordRun serial = RunWf(db, cat, *q, 1);
  EXPECT_GT(serial.chord_pairs, 0u) << "the square must materialize a chord";
  for (uint32_t threads : {2u, 4u}) {
    const ChordRun parallel = RunWf(db, cat, *q, threads);
    EXPECT_EQ(parallel.rows, serial.rows) << "threads=" << threads;
    EXPECT_EQ(parallel.ag_pairs, serial.ag_pairs) << "threads=" << threads;
    EXPECT_EQ(parallel.chord_pairs, serial.chord_pairs)
        << "threads=" << threads;
  }
}

// Randomized cyclic instances: chord contents must be thread-count
// invariant on every shape the triangulator produces.
TEST(ChordParallelTest, RandomCyclicInstancesAgree) {
  Rng rng(424242);
  int cyclic_seen = 0;
  for (int trial = 0; trial < 12 || cyclic_seen < 3; ++trial) {
    ASSERT_LT(trial, 40) << "random workload failed to produce cycles";
    Database db = MakeRandomGraph(40, 3, 800, 11000 + trial);
    Catalog cat = Catalog::Build(db.store());
    QueryGraph q = MakeRandomQuery(rng, 3 + rng.Uniform(3), 5, 3);
    if (IsAcyclic(q)) continue;
    ++cyclic_seen;

    const ChordRun serial = RunWf(db, cat, q, 1);
    for (uint32_t threads : {2u, 4u}) {
      const ChordRun parallel = RunWf(db, cat, q, threads);
      EXPECT_EQ(parallel.rows, serial.rows)
          << "trial " << trial << " threads " << threads;
      EXPECT_EQ(parallel.ag_pairs, serial.ag_pairs)
          << "trial " << trial << " threads " << threads;
      EXPECT_EQ(parallel.chord_pairs, serial.chord_pairs)
          << "trial " << trial << " threads " << threads;
    }
  }
}

// An expired deadline inside chord materialization must surface as
// TimedOut on the amortized probe, serial and parallel alike.
TEST(ChordParallelTest, ChordMaterializationHonorsDeadline) {
  Database db = MakeRandomGraph(80, 3, 6000, 778);
  Catalog cat = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . }", db);
  ASSERT_TRUE(q.ok());
  for (uint32_t threads : {1u, 4u}) {
    WireframeEngine engine;
    CountingSink sink;
    EngineOptions options;
    ThreadPool pool(threads);
    options.pool = &pool;
    options.deadline = Deadline::AlreadyExpired();
    auto stats = engine.Run(db, cat, *q, options, &sink);
    ASSERT_FALSE(stats.ok());
    EXPECT_TRUE(stats.status().IsTimedOut()) << stats.status().ToString();
  }
}

// A flag raised once the chords are materialized must stop edge burnback,
// which checks the run's deadline and cancel flag before each triangle.
TEST_F(ChordParallelFig4Test, EdgeBurnbackHonorsCancel) {
  CardinalityEstimator estimator(cat_);
  auto plan = Edgifier(query(), estimator).PlanEdgeOrder();
  ASSERT_TRUE(plan.ok());
  auto chords = Triangulator(query(), estimator).Triangulate(
      AnalyzeShape(query()));
  ASSERT_TRUE(chords.ok());
  ASSERT_FALSE(chords->chords.empty());
  plan->chords = chords->chords;
  plan->base_triangles = chords->base_triangles;
  plan->base_triangle_closing_edge = chords->base_triangle_closing_edge;

  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::atomic<bool> cancel{false};
    GeneratorOptions options;
    options.triangulate = true;
    options.edge_burnback = true;
    options.trace = [&](const GeneratorTraceStep& step) {
      if (step.kind == GeneratorTraceStep::Kind::kChord) cancel.store(true);
    };
    EngineOptions run;
    run.pool = p;
    run.cancel = &cancel;
    auto result =
        AgGenerator(db_, cat_).Generate(query(), *plan, options, run);
    ASSERT_FALSE(result.ok()) << "pool " << (p == nullptr ? "inline" : "4");
    EXPECT_TRUE(result.status().IsCancelled())
        << result.status().ToString();
  }
}

}  // namespace
}  // namespace wireframe
