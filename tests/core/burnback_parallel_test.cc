// Parallel-burnback equivalence: draining the cascade worklist across
// ownership-partitioned shards (per-variable owners, MPSC handoffs,
// per-set locks) must leave exactly the surviving pair sets — and the
// same pairs_erased count — as the serial drain, for every thread count.
// These tests force the partitioned path with parallel_threshold = 1 so
// even fixture-sized cascades cross shards, and they are the TSan CI
// job's workload for the new locking (smoke label).

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/estimator.h"
#include "core/burnback.h"
#include "core/generator.h"
#include "core/wireframe.h"
#include "datagen/synthetic.h"
#include "planner/edgifier.h"
#include "query/parser.h"
#include "testutil/fixtures.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace wireframe {
namespace {

/// Snapshot of every edge set of an AG, for equality checks.
std::vector<std::set<uint64_t>> AgPairs(const AnswerGraph& ag) {
  std::vector<std::set<uint64_t>> out(ag.NumEdgeSets());
  for (uint32_t e = 0; e < ag.NumEdgeSets(); ++e) {
    ag.Set(e).ForEachPair(
        [&](NodeId u, NodeId v) { out[e].insert(PackPair(u, v)); });
  }
  return out;
}

/// Runs phase 1 with the given pool width and a threshold-1 burnback so
/// every cascade takes the partitioned drain when threads > 1.
struct GenRun {
  std::vector<std::set<uint64_t>> pairs;
  uint64_t pairs_burned = 0;
};

GenRun GenerateWithThreads(const Database& db, const Catalog& cat,
                           const QueryGraph& q, uint32_t threads) {
  CardinalityEstimator est(cat);
  Edgifier edgifier(q, est);
  auto plan = edgifier.PlanEdgeOrder();
  EXPECT_TRUE(plan.ok());
  AgGenerator gen(db, cat);
  GeneratorOptions options;
  options.burnback_parallel_threshold = 1;
  ThreadPool pool(threads);
  EngineOptions engine_options;
  engine_options.pool = threads > 1 ? &pool : nullptr;
  auto result = gen.Generate(q, *plan, options, engine_options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  GenRun run;
  if (result.ok()) {
    run.pairs = AgPairs(*result->ag);
    run.pairs_burned = result->pairs_burned;
  }
  return run;
}

void ExpectThreadCountInvariant(const Database& db, const Catalog& cat,
                                const QueryGraph& q, const char* what) {
  const GenRun serial = GenerateWithThreads(db, cat, q, 1);
  for (uint32_t threads : {2u, 4u}) {
    const GenRun parallel = GenerateWithThreads(db, cat, q, threads);
    ASSERT_EQ(parallel.pairs.size(), serial.pairs.size()) << what;
    for (size_t e = 0; e < serial.pairs.size(); ++e) {
      EXPECT_EQ(parallel.pairs[e], serial.pairs[e])
          << what << " edge set " << e << " threads " << threads;
    }
    EXPECT_EQ(parallel.pairs_burned, serial.pairs_burned)
        << what << " threads " << threads;
  }
}

using BurnbackParallelFig1Test = testutil::Fig1Fixture;
using BurnbackParallelFig4Test = testutil::Fig4Fixture;

TEST_F(BurnbackParallelFig1Test, Fig1SurvivorsAgreeAcrossThreadCounts) {
  ExpectThreadCountInvariant(db_, cat_, query(), "fig1");
}

TEST_F(BurnbackParallelFig4Test, Fig4SurvivorsAgreeAcrossThreadCounts) {
  ExpectThreadCountInvariant(db_, cat_, query(), "fig4");
}

TEST(BurnbackParallelTest, RandomInstancesAgreeAcrossThreadCounts) {
  Rng rng(20260731);
  for (int trial = 0; trial < 8; ++trial) {
    Database db = MakeRandomGraph(40, 3, 420, 9100 + trial);
    Catalog cat = Catalog::Build(db.store());
    QueryGraph q = MakeRandomQuery(rng, 2 + rng.Uniform(4), 5, 3);
    ExpectThreadCountInvariant(db, cat, q, "random");
  }
}

TEST(BurnbackParallelTest, DenseSquareAgreesAcrossThreadCounts) {
  Database db = MakeRandomGraph(80, 3, 6000, 777);
  Catalog cat = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . }", db);
  ASSERT_TRUE(q.ok());
  ExpectThreadCountInvariant(db, cat, *q, "dense-square");
}

// Chain blowup with heavy noise: the lookahead is off here, so the noise
// branches enter the AG and burn back in bulk — big seed worklists that
// genuinely cross the default threshold too.
TEST(BurnbackParallelTest, NoisyChainAgreesAcrossThreadCounts) {
  Database db = MakeChainBlowupGraph(120, 120, /*noise=*/400);
  Catalog cat = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }", db);
  ASSERT_TRUE(q.ok());
  ExpectThreadCountInvariant(db, cat, *q, "noisy-chain");
}

// Direct Burnback drive (no generator): identical KillNode cascades on
// identically-built AGs, serial vs partitioned drain.
TEST(BurnbackParallelTest, KillNodeMatchesSerialDrain) {
  auto build = [](AnswerGraph* ag) {
    // Three-layer chain with shared endpoints so cascades propagate.
    Rng rng(99);
    for (uint32_t e = 0; e < 3; ++e) {
      std::set<std::pair<NodeId, NodeId>> drawn;
      for (int k = 0; k < 40; ++k) {
        const NodeId u = static_cast<NodeId>(rng.Uniform(6) + 10 * e);
        const NodeId v = static_cast<NodeId>(rng.Uniform(6) + 10 * (e + 1));
        drawn.emplace(u, v);
      }
      ag->Materialize(e, {drawn.begin(), drawn.end()});
    }
  };
  auto q = []() {
    QueryGraph q;
    q.AddVar("v0");
    q.AddVar("v1");
    q.AddVar("v2");
    q.AddVar("v3");
    q.AddEdge(0, 0, 1);
    q.AddEdge(1, 1, 2);
    q.AddEdge(2, 2, 3);
    return q;
  }();

  AnswerGraph serial_ag(q);
  build(&serial_ag);
  Burnback serial_bb(&serial_ag);
  const uint64_t serial_erased = serial_bb.KillNode(1, 10);
  EXPECT_EQ(serial_bb.handoffs(), 0u);

  for (uint32_t threads : {2u, 4u}) {
    AnswerGraph parallel_ag(q);
    build(&parallel_ag);
    ThreadPool pool(threads);
    BurnbackOptions options;
    options.pool = &pool;
    options.parallel_threshold = 1;
    Burnback parallel_bb(&parallel_ag, options);
    const uint64_t parallel_erased = parallel_bb.KillNode(1, 10);
    EXPECT_EQ(parallel_erased, serial_erased) << "threads " << threads;
    EXPECT_EQ(AgPairs(parallel_ag), AgPairs(serial_ag))
        << "threads " << threads;
    EXPECT_GE(parallel_bb.max_cascade_depth(), 1u);
  }
}

// The whole-engine path with a shared pool: embeddings and AG must be
// unaffected by where the burnback drains.
TEST(BurnbackParallelTest, EngineResultsUnaffectedByParallelBurnback) {
  Database db = MakeChainBlowupGraph(100, 100, /*noise=*/300);
  Catalog cat = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }", db);
  ASSERT_TRUE(q.ok());

  auto run = [&](uint32_t threads) {
    WireframeOptions wf_options;
    wf_options.lookahead = false;  // keep the burnback load in place
    WireframeEngine engine(wf_options);
    CollectingSink sink;
    EngineOptions options;
    ThreadPool pool(threads);
    options.pool = &pool;
    auto detail = engine.RunDetailed(db, cat, *q, options, &sink);
    EXPECT_TRUE(detail.ok()) << detail.status().ToString();
    std::set<std::vector<NodeId>> rows(sink.rows().begin(),
                                       sink.rows().end());
    return std::make_pair(rows, detail.ok() ? detail->stats.ag_pairs : 0);
  };
  const auto serial = run(1);
  for (uint32_t threads : {2u, 4u}) {
    const auto parallel = run(threads);
    EXPECT_EQ(parallel.first, serial.first) << "threads " << threads;
    EXPECT_EQ(parallel.second, serial.second) << "threads " << threads;
  }
}

}  // namespace
}  // namespace wireframe
