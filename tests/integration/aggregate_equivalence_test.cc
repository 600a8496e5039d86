// Aggregate equivalence: every COUNT/GROUP BY/ASK the factorized DP
// answers over the frozen CSR answer graph must be bit-identical to
// enumerate-then-count — across {fixture} x {threads 1,2,4} x
// {pipelined, bushy phase 2} x {cold, cached AG}. The cached round runs
// through the runtime's AgCache, so a hit serving the count with zero
// phase 1 is part of the certified surface.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/wireframe.h"
#include "datagen/synthetic.h"
#include "exec/aggregate_executor.h"
#include "query/parser.h"
#include "runtime/query_runtime.h"
#include "testutil/fixtures.h"
#include "util/thread_pool.h"

namespace wireframe {
namespace {

/// Enumerate-then-count reference: runs the plain SELECT twin of the
/// aggregate query and folds its rows with the aggregate's own spec.
AggregateResult EnumerateReference(const Database& db, const Catalog& cat,
                                   const std::string& aggregate_sparql,
                                   const std::string& plain_sparql) {
  auto agg_q = SparqlParser::ParseAndBind(aggregate_sparql, db);
  auto plain_q = SparqlParser::ParseAndBind(plain_sparql, db);
  EXPECT_TRUE(agg_q.ok() && plain_q.ok());
  EnumeratingAggregateSink fold(agg_q->aggregate());
  WireframeEngine engine;
  auto detail = engine.RunDetailed(db, cat, *plain_q, EngineOptions{}, &fold);
  EXPECT_TRUE(detail.ok()) << detail.status().ToString();
  return fold.TakeResult();
}

/// One full equivalence sweep for a single (db, query) cell.
void ExpectAggregateEquivalent(const Database& db, const Catalog& cat,
                               const std::string& aggregate_sparql,
                               const std::string& plain_sparql,
                               const char* what) {
  const AggregateResult reference =
      EnumerateReference(db, cat, aggregate_sparql, plain_sparql);
  auto q = SparqlParser::ParseAndBind(aggregate_sparql, db);
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  for (bool bushy : {false, true}) {
    for (uint32_t threads : {1u, 2u, 4u}) {
      WireframeOptions wf_options;
      wf_options.bushy_phase2 = bushy;
      WireframeEngine engine(wf_options);
      EngineOptions options;
      ThreadPool pool(threads);
      options.pool = &pool;
      CollectingAggregateSink sink;
      auto detail = engine.RunDetailed(db, cat, *q, options, &sink);
      ASSERT_TRUE(detail.ok())
          << what << ": " << detail.status().ToString();
      ASSERT_TRUE(detail->has_aggregate) << what;
      EXPECT_EQ(detail->aggregate.value, reference.value)
          << what << " bushy=" << bushy << " threads=" << threads;
      EXPECT_EQ(detail->aggregate.groups, reference.groups)
          << what << " bushy=" << bushy << " threads=" << threads;
    }
  }

  // Cold then cached: round 0 fills the AgCache, round 1 must hit and
  // serve the identical answer off the shared frozen AG.
  runtime::RuntimeOptions runtime_options;
  runtime_options.pool_threads = 2;
  runtime_options.admission.ag_cache_bytes = 32ull << 20;
  runtime::QueryRuntime runtime(runtime_options);
  for (int round = 0; round < 2; ++round) {
    runtime::QueryRequest request;
    request.db = &db;
    request.catalog = &cat;
    request.query = *q;
    auto session = runtime.Submit(std::move(request));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    (*session)->Wait();
    ASSERT_EQ((*session)->outcome(), runtime::QueryOutcome::kCompleted)
        << what << " round " << round;
    EXPECT_EQ((*session)->cache_hit(), round == 1)
        << what << " round " << round;
    ASSERT_TRUE((*session)->has_aggregate()) << what;
    EXPECT_EQ((*session)->aggregate().value, reference.value)
        << what << " round " << round;
    EXPECT_EQ((*session)->aggregate().groups, reference.groups)
        << what << " round " << round;
  }
}

using AggregateEquivalenceFig1Test = testutil::Fig1Fixture;
using AggregateEquivalenceFig4Test = testutil::Fig4Fixture;

TEST_F(AggregateEquivalenceFig1Test, CountAndGroupByMatchEnumeration) {
  const std::string plain =
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }";
  ExpectAggregateEquivalent(
      db_, cat_,
      "select (count(*) as ?c) where { ?w A ?x . ?x B ?y . ?y C ?z . }",
      plain, "fig1-count");
  ExpectAggregateEquivalent(
      db_, cat_,
      "select ?w (count(*) as ?c) where "
      "{ ?w A ?x . ?x B ?y . ?y C ?z . } group by ?w",
      plain, "fig1-groupby");
  ExpectAggregateEquivalent(
      db_, cat_,
      "select (count(distinct ?y) as ?c) where "
      "{ ?w A ?x . ?x B ?y . ?y C ?z . }",
      plain, "fig1-distinct");
}

TEST_F(AggregateEquivalenceFig4Test, CyclicCountAndAskMatchEnumeration) {
  const std::string plain =
      "select * where { ?x A ?e . ?x B ?z . ?e C ?y . ?y D ?z . }";
  ExpectAggregateEquivalent(
      db_, cat_,
      "select (count(*) as ?c) where "
      "{ ?x A ?e . ?x B ?z . ?e C ?y . ?y D ?z . }",
      plain, "fig4-count");
  ExpectAggregateEquivalent(
      db_, cat_,
      "ask { ?x A ?e . ?x B ?z . ?e C ?y . ?y D ?z . }", plain, "fig4-ask");
}

TEST(AggregateEquivalenceTest, RandomSquaresMatchEnumeration) {
  for (int trial = 0; trial < 3; ++trial) {
    Database db = MakeRandomGraph(40, 3, 1200, 5200 + trial);
    Catalog cat = Catalog::Build(db.store());
    const std::string plain =
        "select * where { ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . }";
    ExpectAggregateEquivalent(
        db, cat,
        "select (count(*) as ?c) where "
        "{ ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . }",
        plain, "square-count");
    ExpectAggregateEquivalent(
        db, cat,
        "select ?a (count(*) as ?c) where "
        "{ ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . } group by ?a",
        plain, "square-groupby");
  }
}

// Dense square: the blowup cell where the DP's AG-size-bound cost
// visibly diverges from enumeration's output-size-bound cost — the
// count must not.
TEST(AggregateEquivalenceTest, DenseSquareMatchesEnumeration) {
  Database db = MakeRandomGraph(80, 3, 6000, 777);
  Catalog cat = Catalog::Build(db.store());
  ExpectAggregateEquivalent(
      db, cat,
      "select (count(*) as ?c) where "
      "{ ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . }",
      "select * where { ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . }",
      "dense-square");
}

// A 5-cycle has two chords after triangulation — outside the single-
// chord DP, so the executor falls back to enumerate-then-count. The
// fallback must sweep the same cells (bushy, threads, cache) and agree.
TEST(AggregateEquivalenceTest, FiveCycleFallbackMatchesEnumeration) {
  Database db = MakeRandomGraph(30, 3, 500, 61);
  Catalog cat = Catalog::Build(db.store());
  ExpectAggregateEquivalent(
      db, cat,
      "select (count(*) as ?c) where "
      "{ ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?e . ?e p1 ?a . }",
      "select * where "
      "{ ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?e . ?e p1 ?a . }",
      "five-cycle");
}

}  // namespace
}  // namespace wireframe
