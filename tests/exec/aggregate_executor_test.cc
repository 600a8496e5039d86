#include "exec/aggregate_executor.h"

#include <string>

#include <gtest/gtest.h>

#include "core/wireframe.h"
#include "datagen/synthetic.h"
#include "query/parser.h"
#include "testutil/fixtures.h"
#include "util/thread_pool.h"

namespace wireframe {
namespace {

/// Runs `sparql` through the Wireframe engine and returns the detail
/// (aggregate queries land in detail.aggregate via ExecutePhase2).
WireframeRunDetail RunAggregate(const Database& db, const Catalog& cat,
                       const std::string& sparql, uint32_t threads = 1,
                       WireframeOptions wf_options = {}) {
  auto q = SparqlParser::ParseAndBind(sparql, db);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  WireframeEngine engine(wf_options);
  EngineOptions options;
  ThreadPool pool(threads);
  options.pool = &pool;
  CollectingAggregateSink sink;
  auto detail = engine.RunDetailed(db, cat, *q, options, &sink);
  EXPECT_TRUE(detail.ok()) << detail.status().ToString();
  return std::move(detail).value();
}

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
  EngineOptions options;
  auto detail = engine.RunDetailed(db, cat, *plain_q, options, &fold);
  EXPECT_TRUE(detail.ok()) << detail.status().ToString();
  return fold.TakeResult();
}

using AggregateFig1Test = testutil::Fig1Fixture;
using AggregateFig4Test = testutil::Fig4Fixture;

TEST_F(AggregateFig1Test, CountStarIsFactorizedAndExact) {
  WireframeRunDetail detail = RunAggregate(
      db_, cat_, "select (count(*) as ?c) where "
                 "{ ?w A ?x . ?x B ?y . ?y C ?z . }");
  ASSERT_TRUE(detail.has_aggregate);
  EXPECT_TRUE(detail.aggregate.factorized);
  EXPECT_EQ(detail.aggregate.value, AggregateValue::FromU64(12));
  EXPECT_EQ(detail.stats.output_tuples, 1u);
  EXPECT_GE(detail.stats.aggregate_seconds, 0.0);
}

TEST_F(AggregateFig1Test, GroupByMatchesEnumeration) {
  const std::string agg =
      "select ?w (count(*) as ?c) where "
      "{ ?w A ?x . ?x B ?y . ?y C ?z . } group by ?w";
  const std::string plain =
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }";
  WireframeRunDetail detail = RunAggregate(db_, cat_, agg);
  ASSERT_TRUE(detail.has_aggregate);
  EXPECT_TRUE(detail.aggregate.factorized);
  AggregateResult reference = EnumerateReference(db_, cat_, agg, plain);
  EXPECT_EQ(detail.aggregate.groups, reference.groups);
  EXPECT_EQ(detail.aggregate.value, reference.value);
  EXPECT_EQ(detail.stats.output_tuples, reference.groups.size());
}

TEST_F(AggregateFig1Test, CountDistinctMatchesEnumeration) {
  const std::string agg =
      "select (count(distinct ?y) as ?c) where "
      "{ ?w A ?x . ?x B ?y . ?y C ?z . }";
  const std::string plain =
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }";
  WireframeRunDetail detail = RunAggregate(db_, cat_, agg);
  ASSERT_TRUE(detail.has_aggregate);
  EXPECT_TRUE(detail.aggregate.factorized);
  AggregateResult reference = EnumerateReference(db_, cat_, agg, plain);
  EXPECT_EQ(detail.aggregate.value, reference.value);
}

TEST_F(AggregateFig1Test, AskIsTrueWithoutEnumeration) {
  WireframeRunDetail detail = RunAggregate(
      db_, cat_, "ask { ?w A ?x . ?x B ?y . ?y C ?z . }");
  ASSERT_TRUE(detail.has_aggregate);
  EXPECT_TRUE(detail.aggregate.factorized);
  EXPECT_TRUE(detail.aggregate.ask);
  EXPECT_EQ(detail.aggregate.value, AggregateValue::FromU64(1));
}

TEST(AggregateAskTest, EmptyResultAsksFalse) {
  DatabaseBuilder b;
  b.Add("a", "P", "b");
  b.Add("c", "Q", "d");  // no P-then-Q chain exists
  Database db = std::move(b).Build();
  Catalog cat = Catalog::Build(db.store());
  WireframeRunDetail detail =
      RunAggregate(db, cat, "ask { ?x P ?y . ?y Q ?z . }");
  ASSERT_TRUE(detail.has_aggregate);
  EXPECT_FALSE(detail.aggregate.ask);
  EXPECT_TRUE(detail.aggregate.value.IsZero());
}

TEST_F(AggregateFig4Test, CyclicCountUsesTheChordDp) {
  WireframeRunDetail detail = RunAggregate(
      db_, cat_, "select (count(*) as ?c) where "
                 "{ ?x A ?e . ?x B ?z . ?e C ?y . ?y D ?z . }");
  ASSERT_TRUE(detail.has_aggregate);
  EXPECT_TRUE(detail.aggregate.factorized) <<
      detail.aggregate.fallback_reason;
  EXPECT_EQ(detail.aggregate.value, AggregateValue::FromU64(2));
}

TEST(AggregateRandomTest, SquareMatchesEnumeration) {
  Database db = MakeRandomGraph(40, 3, 1500, 42);
  Catalog cat = Catalog::Build(db.store());
  const std::string agg =
      "select (count(*) as ?c) where "
      "{ ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . }";
  const std::string plain =
      "select * where { ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . }";
  WireframeRunDetail detail = RunAggregate(db, cat, agg);
  ASSERT_TRUE(detail.has_aggregate);
  EXPECT_TRUE(detail.aggregate.factorized) <<
      detail.aggregate.fallback_reason;
  AggregateResult reference = EnumerateReference(db, cat, agg, plain);
  EXPECT_EQ(detail.aggregate.value, reference.value);
}

TEST(AggregateRandomTest, SquareGroupByChordEndpointMatchesEnumeration) {
  Database db = MakeRandomGraph(40, 3, 1500, 43);
  Catalog cat = Catalog::Build(db.store());
  const std::string agg =
      "select ?a (count(*) as ?c) where "
      "{ ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . } group by ?a";
  const std::string plain =
      "select * where { ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . }";
  WireframeRunDetail detail = RunAggregate(db, cat, agg);
  ASSERT_TRUE(detail.has_aggregate);
  AggregateResult reference = EnumerateReference(db, cat, agg, plain);
  EXPECT_EQ(detail.aggregate.groups, reference.groups);
  EXPECT_EQ(detail.aggregate.value, reference.value);
}

TEST(AggregateRandomTest, SquareWithPendantTailMatchesEnumeration) {
  Database db = MakeRandomGraph(40, 3, 1500, 44);
  Catalog cat = Catalog::Build(db.store());
  const std::string agg =
      "select (count(*) as ?c) where "
      "{ ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . ?b p2 ?t . }";
  const std::string plain =
      "select * where "
      "{ ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . ?b p2 ?t . }";
  WireframeRunDetail detail = RunAggregate(db, cat, agg);
  ASSERT_TRUE(detail.has_aggregate);
  AggregateResult reference = EnumerateReference(db, cat, agg, plain);
  EXPECT_EQ(detail.aggregate.value, reference.value);
}

TEST(AggregateRandomTest, FiveCycleFallsBackToEnumeration) {
  Database db = MakeRandomGraph(30, 3, 800, 45);
  Catalog cat = Catalog::Build(db.store());
  const std::string agg =
      "select (count(*) as ?c) where "
      "{ ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?e . ?e p1 ?a . }";
  const std::string plain =
      "select * where "
      "{ ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?e . ?e p1 ?a . }";
  WireframeRunDetail detail = RunAggregate(db, cat, agg);
  ASSERT_TRUE(detail.has_aggregate);
  EXPECT_FALSE(detail.aggregate.factorized);
  EXPECT_FALSE(detail.aggregate.fallback_reason.empty());
  AggregateResult reference = EnumerateReference(db, cat, agg, plain);
  EXPECT_EQ(detail.aggregate.value, reference.value);
}

TEST(AggregateRandomTest, ThreadCountDoesNotChangeTheAnswer) {
  Database db = MakeRandomGraph(40, 3, 1500, 46);
  Catalog cat = Catalog::Build(db.store());
  const std::string agg =
      "select ?a (count(*) as ?c) where "
      "{ ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . } group by ?a";
  WireframeRunDetail serial = RunAggregate(db, cat, agg, /*threads=*/1);
  WireframeRunDetail parallel = RunAggregate(db, cat, agg, /*threads=*/4);
  EXPECT_EQ(serial.aggregate.value, parallel.aggregate.value);
  EXPECT_EQ(serial.aggregate.groups, parallel.aggregate.groups);
}

/// Layered complete-bipartite chain: `layers` layers of `width` nodes,
/// every consecutive pair fully connected under a per-layer label, so a
/// (layers-1)-edge chain query has exactly width^layers embeddings.
Database MakeLayeredBlowup(uint32_t layers, uint32_t width) {
  DatabaseBuilder b;
  for (uint32_t l = 0; l + 1 < layers; ++l) {
    const std::string label = "p" + std::to_string(l);
    for (uint32_t i = 0; i < width; ++i) {
      const std::string src =
          "n" + std::to_string(l) + "_" + std::to_string(i);
      for (uint32_t j = 0; j < width; ++j) {
        b.Add(src, label,
              "n" + std::to_string(l + 1) + "_" + std::to_string(j));
      }
    }
  }
  return std::move(b).Build();
}

std::string LayeredCountQuery(uint32_t layers) {
  std::string q = "select (count(*) as ?c) where {";
  for (uint32_t l = 0; l + 1 < layers; ++l) {
    q += " ?v" + std::to_string(l) + " p" + std::to_string(l) + " ?v" +
         std::to_string(l + 1) + " .";
  }
  return q + " }";
}

TEST(AggregateOverflowTest, PromotionPast64BitsIsExact) {
  // 22 layers of 10 = 10^22 embeddings, past 2^64 ~ 1.8e19: the u64
  // pass overflows loudly and the 128-bit rerun carries the exact value.
  Database db = MakeLayeredBlowup(22, 10);
  Catalog cat = Catalog::Build(db.store());
  WireframeRunDetail detail = RunAggregate(db, cat, LayeredCountQuery(22));
  ASSERT_TRUE(detail.has_aggregate);
  EXPECT_TRUE(detail.aggregate.factorized);
  EXPECT_TRUE(detail.aggregate.value.ExceedsU64());
  EXPECT_FALSE(detail.aggregate.value.saturated);
  EXPECT_EQ(detail.aggregate.value.ToString(),
            "1" + std::string(22, '0'));
}

TEST(AggregateOverflowTest, SaturationPast128BitsIsFlagged) {
  // 46 layers of 10 = 10^46, past 2^128 ~ 3.4e38: even the 128-bit
  // rerun saturates; the result says so instead of lying.
  Database db = MakeLayeredBlowup(46, 10);
  Catalog cat = Catalog::Build(db.store());
  WireframeRunDetail detail = RunAggregate(db, cat, LayeredCountQuery(46));
  ASSERT_TRUE(detail.has_aggregate);
  EXPECT_TRUE(detail.aggregate.value.saturated);
  EXPECT_EQ(detail.aggregate.value.ToString().substr(0, 2), ">=");
  // Saturation never turns a nonzero count into zero, so ASK over the
  // same shape stays exact.
  WireframeRunDetail ask = RunAggregate(
      db, cat, std::string("ask where {") +
                   LayeredCountQuery(46).substr(
                       std::string("select (count(*) as ?c) where {")
                           .size()));
  EXPECT_TRUE(ask.aggregate.ask);
}

TEST(AggregateValueTest, ToStringRendersSmallAndLarge) {
  EXPECT_EQ(AggregateValue::FromU64(0).ToString(), "0");
  EXPECT_EQ(AggregateValue::FromU64(12345).ToString(), "12345");
  AggregateValue big;
  big.lo = 0;
  big.hi = 1;  // 2^64
  EXPECT_EQ(big.ToString(), "18446744073709551616");
}

}  // namespace
}  // namespace wireframe
