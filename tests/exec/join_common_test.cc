#include "exec/join_common.h"

#include <set>

#include <gtest/gtest.h>

#include "datagen/figures.h"
#include "query/parser.h"

namespace wireframe {
namespace {

class JoinCommonTest : public ::testing::Test {
 protected:
  JoinCommonTest()
      : db_(MakeFig1Graph()), cat_(Catalog::Build(db_.store())) {}

  QueryGraph Chain() {
    auto q = MakeFig1Query(db_);
    EXPECT_TRUE(q.ok());
    return std::move(q).value();
  }

  Database db_;
  Catalog cat_;
};

TEST_F(JoinCommonTest, OrderBySmallestLabelIsConnectedPermutation) {
  QueryGraph q = Chain();
  auto order = OrderBySmallestLabel(q, cat_);
  EXPECT_EQ(std::set<uint32_t>(order.begin(), order.end()).size(), 3u);
  // B (2 edges) is the smallest label, so it leads.
  EXPECT_EQ(q.Edge(order[0]).label, *db_.LabelOf("B"));
}

TEST_F(JoinCommonTest, OrderByEstimatedGrowthConnected) {
  QueryGraph q = Chain();
  CardinalityEstimator est(cat_);
  auto order = OrderByEstimatedGrowth(q, est);
  EXPECT_EQ(order.size(), 3u);
  std::set<VarId> bound;
  for (size_t i = 0; i < order.size(); ++i) {
    const QueryEdge& e = q.Edge(order[i]);
    if (i > 0) {
      EXPECT_TRUE(bound.count(e.src) || bound.count(e.dst));
    }
    bound.insert(e.src);
    bound.insert(e.dst);
  }
}

TEST_F(JoinCommonTest, OrderAsWrittenKeepsPositionWhenConnected) {
  QueryGraph q = Chain();
  auto order = OrderAsWrittenConnected(q);
  EXPECT_EQ(order, (std::vector<uint32_t>{0, 1, 2}));
}

TEST_F(JoinCommonTest, OrderAsWrittenRepairsConnectivity) {
  // ?a A ?b (edge 0) and ?c C ?d (edge 1) disconnected until edge 2
  // bridges; written order 0,1,2 is invalid, expect 0,2,1.
  DatabaseBuilder builder;
  builder.Add("x", "A", "y");
  builder.Add("y", "B", "z");
  builder.Add("z", "C", "w");
  Database db = std::move(builder).Build();
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?a A ?b . ?c C ?d . ?b B ?c . }", db);
  ASSERT_TRUE(q.ok());
  auto order = OrderAsWrittenConnected(*q);
  EXPECT_EQ(order, (std::vector<uint32_t>{0, 2, 1}));
}

TEST_F(JoinCommonTest, PipelinedFindsAllEmbeddings) {
  QueryGraph q = Chain();
  CountingSink sink;
  auto stats = RunPipelined(db_, q, {0, 1, 2}, &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->output_tuples, kFig1Embeddings);
  EXPECT_GT(stats->edge_walks, 0u);
}

TEST_F(JoinCommonTest, PipelinedBackwardOrder) {
  QueryGraph q = Chain();
  CountingSink sink;
  auto stats = RunPipelined(db_, q, {2, 1, 0}, &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->output_tuples, kFig1Embeddings);
}

TEST_F(JoinCommonTest, MaterializingFindsAllEmbeddings) {
  QueryGraph q = Chain();
  CountingSink sink;
  auto stats = RunMaterializing(db_, q, {0, 1, 2}, 1 << 20, &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->output_tuples, kFig1Embeddings);
  EXPECT_GE(stats->peak_intermediate, kFig1Embeddings);
}

TEST_F(JoinCommonTest, MaterializingRespectsMemoryBudget) {
  QueryGraph q = Chain();
  CountingSink sink;
  auto stats = RunMaterializing(db_, q, {0, 1, 2}, 8, &sink);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kOutOfRange);
}

TEST_F(JoinCommonTest, PipelinedHonorsDeadline) {
  QueryGraph q = Chain();
  CountingSink sink;
  // An expired deadline is only noticed on the check stride; build a
  // query whose enumeration would exceed it.
  Database big = MakeFig1Graph();
  EngineOptions run;
  run.deadline = Deadline::AfterSeconds(1000);
  auto stats = RunPipelined(big, q, {0, 1, 2}, &sink, run);
  EXPECT_TRUE(stats.ok());
}

TEST_F(JoinCommonTest, MaterializingHonorsExpiredDeadline) {
  QueryGraph q = Chain();
  CountingSink sink;
  EngineOptions run;
  run.deadline = Deadline::AlreadyExpired();
  auto stats = RunMaterializing(db_, q, {0, 1, 2}, 1 << 20, &sink, run);
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsTimedOut());
}

}  // namespace
}  // namespace wireframe
