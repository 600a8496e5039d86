// The embedding plan's skeleton/leaf split: the planner orders the
// skeleton greedily and appends the leaf edges by ascending fan-out, and
// EmbeddingPlan::ToString shows the split phase 2 runs.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "planner/embedding_planner.h"
#include "query/templates.h"

namespace wireframe {
namespace {

std::string Label(LabelId p) {
  std::string name("p");
  name += std::to_string(p);
  return name;
}

TEST(SkeletonPlanTest, SnowflakeRootsAtTheSmallestSkeletonEdge) {
  QueryGraph q =
      SnowflakeTemplate().Instantiate({0, 1, 2, 3, 4, 5, 6, 7, 8});
  // Leaf edge 8 is the smallest set overall, but phase 2 enumerates the
  // skeleton (edges 0-2), so the root is the smallest of those.
  std::vector<AgEdgeStats> stats(9, AgEdgeStats{100, 50, 50});
  stats[8] = {1, 1, 1};
  stats[1] = {20, 20, 20};
  auto plan = EmbeddingPlanner(q).PlanJoinOrder(stats);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->join_order[0], 1u);
  for (size_t i = 0; i < 3; ++i) EXPECT_LT(plan->join_order[i], 3u);
  for (size_t i = 3; i < 9; ++i) EXPECT_GE(plan->join_order[i], 3u);
}

TEST(SkeletonPlanTest, LeavesFollowInAscendingFanout) {
  QueryGraph q =
      SnowflakeTemplate().Instantiate({0, 1, 2, 3, 4, 5, 6, 7, 8});
  std::vector<AgEdgeStats> stats(9, AgEdgeStats{10, 10, 10});
  // Leaf fan-outs from their bound source: edge e has fan-out 10 - e.
  for (uint32_t e = 3; e < 9; ++e) stats[e] = {10 * (10 - e), 10, 10};
  auto plan = EmbeddingPlanner(q).PlanJoinOrder(stats);
  ASSERT_TRUE(plan.ok());
  const std::vector<uint32_t> leaves(plan->join_order.begin() + 3,
                                     plan->join_order.end());
  EXPECT_EQ(leaves, (std::vector<uint32_t>{8, 7, 6, 5, 4, 3}));
}

TEST(SkeletonPlanTest, ToStringMarksSkeletonAndLeafProduct) {
  QueryGraph q = ChainTemplate(3).Instantiate({0, 1, 2});
  EmbeddingPlan plan;
  plan.join_order = {1, 0, 2};
  plan.estimated_tuples = 12;
  EXPECT_EQ(plan.ToString(q, Label),
            "Embedding plan (tuples ~12):\n"
            "  skeleton, depth-first:\n"
            "    1. join ?v1 --p1--> ?v2\n"
            "  leaf product, per skeleton binding:\n"
            "    2. span ?v0 --p0--> ?v1\n"
            "    3. span ?v2 --p2--> ?v3\n");
}

TEST(SkeletonPlanTest, ToStringOfAStarKeepsTheRootInTheSkeleton) {
  QueryGraph q = StarTemplate(2).Instantiate({0, 1});
  EmbeddingPlan plan;
  plan.join_order = {1, 0};
  const std::string text = plan.ToString(q, Label);
  EXPECT_NE(text.find("    1. join ?x --p1--> ?l1\n"), std::string::npos);
  EXPECT_NE(text.find("    2. span ?x --p0--> ?l0\n"), std::string::npos);
}

TEST(SkeletonPlanTest, ToStringOfACycleHasNoLeafProduct) {
  QueryGraph q = DiamondTemplate().Instantiate({0, 1, 2, 3});
  EmbeddingPlan plan;
  plan.join_order = {0, 1, 2, 3};
  EXPECT_EQ(plan.ToString(q, Label).find("leaf product"), std::string::npos);
}

}  // namespace
}  // namespace wireframe
