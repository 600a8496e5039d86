// Freeze equivalence: the engine's frozen CSR AnswerGraph must hold
// exactly the pairs of the raw generator's unfrozen AG for the same
// plan, and phase 2 over it must produce exactly the rows of the NJ
// backtracking oracle — and of every other baseline engine — on the
// paper fixtures and randomized workloads, at every thread count.

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/generator.h"
#include "core/wireframe.h"
#include "datagen/synthetic.h"
#include "exec/engine.h"
#include "query/parser.h"
#include "query/shape.h"
#include "testutil/fixtures.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace wireframe {
namespace {

using RowSet = std::set<std::vector<NodeId>>;

/// An answer graph's pairs, set by set, plus |AG| over the query edges.
struct AgContent {
  uint64_t ag_pairs = 0;
  std::vector<std::set<uint64_t>> edge_sets;
};

AgContent ContentOf(const AnswerGraph& ag) {
  AgContent content;
  content.ag_pairs = ag.TotalQueryEdgePairs();
  content.edge_sets.resize(ag.NumEdgeSets());
  for (uint32_t e = 0; e < ag.NumEdgeSets(); ++e) {
    ag.Set(e).ForEachPair([&](NodeId u, NodeId v) {
      content.edge_sets[e].insert(PackPair(u, v));
    });
  }
  return content;
}

struct WfRun {
  RowSet rows;
  uint64_t ag_pairs = 0;
  AgContent ag;
  AgPlan plan;
  bool frozen = false;
};

WfRun RunWf(const Database& db, const Catalog& cat, const QueryGraph& q,
            uint32_t threads = 1, bool bushy = false) {
  WireframeOptions wf_options;
  wf_options.bushy_phase2 = bushy;
  WireframeEngine engine(wf_options);
  CollectingSink sink;
  EngineOptions options;
  ThreadPool pool(threads);
  options.pool = &pool;
  auto detail = engine.RunDetailed(db, cat, q, options, &sink);
  EXPECT_TRUE(detail.ok()) << detail.status().ToString();
  WfRun run;
  run.rows = {sink.rows().begin(), sink.rows().end()};
  if (detail.ok()) {
    run.ag_pairs = detail->stats.ag_pairs;
    run.frozen = detail->ag->IsFrozen();
    run.ag = ContentOf(*detail->ag);
    run.plan = detail->ag_plan;
  }
  return run;
}

/// The reference AG: the raw generator's unfrozen AG for `plan`, under
/// the engine's phase-1 options (WireframeOptions defaults).
AgContent BuildFormAg(const Database& db, const Catalog& cat,
                      const QueryGraph& q, const AgPlan& plan) {
  const WireframeOptions wf_defaults;
  GeneratorOptions options;
  options.triangulate = wf_defaults.triangulate;
  options.edge_burnback = wf_defaults.edge_burnback;
  options.lookahead = wf_defaults.lookahead;
  AgGenerator generator(db, cat);
  auto result = generator.Generate(q, plan, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  EXPECT_FALSE(result->ag->IsFrozen());
  return ContentOf(*result->ag);
}

RowSet EngineRows(const Database& db, const Catalog& cat,
                  const QueryGraph& q, const char* name) {
  auto engine = MakeEngine(name);
  CollectingSink sink;
  auto stats = engine->Run(db, cat, q, EngineOptions{}, &sink);
  EXPECT_TRUE(stats.ok()) << name << ": " << stats.status().ToString();
  return {sink.rows().begin(), sink.rows().end()};
}

void ExpectSameAg(const WfRun& frozen, const AgContent& reference,
                  const char* what, uint32_t threads) {
  EXPECT_EQ(frozen.ag_pairs, reference.ag_pairs)
      << what << " threads " << threads;
  ASSERT_EQ(frozen.ag.edge_sets.size(), reference.edge_sets.size()) << what;
  for (size_t e = 0; e < reference.edge_sets.size(); ++e) {
    EXPECT_EQ(frozen.ag.edge_sets[e], reference.edge_sets[e])
        << what << " edge set " << e << " threads " << threads;
  }
}

void ExpectFreezeEquivalent(const Database& db, const Catalog& cat,
                            const QueryGraph& q, const char* what) {
  const RowSet oracle = EngineRows(db, cat, q, "NJ");
  const AgContent reference = BuildFormAg(db, cat, q, RunWf(db, cat, q).plan);
  for (uint32_t threads : {1u, 2u, 4u}) {
    const WfRun frozen = RunWf(db, cat, q, threads);
    EXPECT_TRUE(frozen.frozen) << what;
    EXPECT_EQ(frozen.rows, oracle) << what << " threads " << threads;
    ExpectSameAg(frozen, reference, what, threads);
  }
  // All five engines agree: the other baselines against the oracle.
  for (const char* name : {"PG", "VT", "MD"}) {
    EXPECT_EQ(EngineRows(db, cat, q, name), oracle)
        << what << " engine " << name;
  }
}

using FreezeFig1Test = testutil::Fig1Fixture;
using FreezeFig4Test = testutil::Fig4Fixture;

TEST_F(FreezeFig1Test, Fig1FrozenMatchesUnfrozenAndBaselines) {
  ExpectFreezeEquivalent(db_, cat_, query(), "fig1");
}

TEST_F(FreezeFig4Test, Fig4FrozenMatchesUnfrozenAndBaselines) {
  ExpectFreezeEquivalent(db_, cat_, query(), "fig4");
}

TEST(FreezeEquivalenceTest, RandomInstancesMatchAcrossAllEngines) {
  Rng rng(20260801);
  int cyclic_seen = 0, acyclic_seen = 0;
  for (int trial = 0; trial < 8; ++trial) {
    Database db = MakeRandomGraph(30, 3, 300, 9200 + trial);
    Catalog cat = Catalog::Build(db.store());
    QueryGraph q = MakeRandomQuery(rng, 2 + rng.Uniform(3), 5, 3);
    (IsAcyclic(q) ? acyclic_seen : cyclic_seen) += 1;
    ExpectFreezeEquivalent(db, cat, q, "random");
  }
  EXPECT_GT(cyclic_seen + acyclic_seen, 0);
}

TEST(FreezeEquivalenceTest, ChainBlowupMatches) {
  Database db = MakeChainBlowupGraph(200, 200, /*noise=*/30);
  Catalog cat = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }", db);
  ASSERT_TRUE(q.ok());
  const WfRun frozen = RunWf(db, cat, *q);
  EXPECT_EQ(frozen.rows.size(), 200u * 200u);
  EXPECT_EQ(frozen.rows, EngineRows(db, cat, *q, "NJ"));
  EXPECT_EQ(frozen.ag_pairs,
            BuildFormAg(db, cat, *q, frozen.plan).ag_pairs);
}

// The bushy executor's leaf scans read ForEachPair off the frozen CSR.
TEST(FreezeEquivalenceTest, BushyExecutorMatchesOverFrozenAg) {
  Rng rng(607);
  for (int trial = 0; trial < 4; ++trial) {
    Database db = MakeRandomGraph(30, 3, 300, 4100 + trial);
    Catalog cat = Catalog::Build(db.store());
    QueryGraph q = MakeRandomQuery(rng, 3 + rng.Uniform(3), 5, 3);
    const RowSet oracle = EngineRows(db, cat, q, "NJ");
    for (uint32_t threads : {1u, 4u}) {
      const WfRun frozen = RunWf(db, cat, q, threads, /*bushy=*/true);
      EXPECT_EQ(frozen.rows, oracle)
          << "trial " << trial << " threads " << threads;
    }
  }
}

// Chord filters in phase 2 probe the frozen chord sets (binary search
// instead of hash probes) — cyclic results must not move.
TEST(FreezeEquivalenceTest, DenseSquareChordFiltersMatch) {
  Database db = MakeRandomGraph(80, 3, 6000, 777);
  Catalog cat = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . }", db);
  ASSERT_TRUE(q.ok());
  const RowSet oracle = EngineRows(db, cat, *q, "NJ");
  const AgContent reference =
      BuildFormAg(db, cat, *q, RunWf(db, cat, *q).plan);
  for (uint32_t threads : {1u, 4u}) {
    const WfRun frozen = RunWf(db, cat, *q, threads);
    EXPECT_EQ(frozen.rows, oracle) << "threads " << threads;
    EXPECT_EQ(frozen.ag_pairs, reference.ag_pairs);
  }
}

}  // namespace
}  // namespace wireframe
