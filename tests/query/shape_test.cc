#include "query/shape.h"

#include <set>

#include <gtest/gtest.h>

#include "query/templates.h"

namespace wireframe {
namespace {

QueryGraph Chain(uint32_t n) {
  return ChainTemplate(n).Instantiate(std::vector<LabelId>(n, 0));
}

TEST(ShapeTest, ChainIsAcyclicConnected) {
  QueryShape s = AnalyzeShape(Chain(3));
  EXPECT_TRUE(s.connected);
  EXPECT_TRUE(s.acyclic);
  EXPECT_TRUE(s.cycles.empty());
  EXPECT_TRUE(IsAcyclic(Chain(5)));
  EXPECT_TRUE(IsConnected(Chain(5)));
}

TEST(ShapeTest, SnowflakeIsAcyclic) {
  QueryGraph q =
      SnowflakeTemplate().Instantiate(std::vector<LabelId>(9, 0));
  QueryShape s = AnalyzeShape(q);
  EXPECT_TRUE(s.connected);
  EXPECT_TRUE(s.acyclic);
}

TEST(ShapeTest, DiamondHasOneFourCycle) {
  QueryGraph q = DiamondTemplate().Instantiate({0, 1, 2, 3});
  QueryShape s = AnalyzeShape(q);
  EXPECT_TRUE(s.connected);
  EXPECT_FALSE(s.acyclic);
  ASSERT_EQ(s.cycles.size(), 1u);
  EXPECT_EQ(s.cycles[0].Length(), 4u);
}

TEST(ShapeTest, CycleEdgesConnectConsecutiveVars) {
  QueryGraph q = DiamondTemplate().Instantiate({0, 1, 2, 3});
  QueryCycle c = AnalyzeShape(q).cycles[0];
  const uint32_t m = c.Length();
  ASSERT_EQ(c.edges.size(), m);
  for (uint32_t i = 0; i < m; ++i) {
    const QueryEdge& e = q.Edge(c.edges[i]);
    VarId a = c.vars[i];
    VarId b = c.vars[(i + 1) % m];
    EXPECT_TRUE((e.src == a && e.dst == b) || (e.src == b && e.dst == a))
        << "cycle edge " << i << " does not connect its corners";
  }
  // All cycle vars distinct.
  std::set<VarId> distinct(c.vars.begin(), c.vars.end());
  EXPECT_EQ(distinct.size(), m);
}

TEST(ShapeTest, TriangleCycle) {
  QueryGraph q = CycleTemplate(3).Instantiate({0, 1, 2});
  QueryShape s = AnalyzeShape(q);
  EXPECT_FALSE(s.acyclic);
  ASSERT_EQ(s.cycles.size(), 1u);
  EXPECT_EQ(s.cycles[0].Length(), 3u);
}

TEST(ShapeTest, ParallelEdgesFormTwoCycle) {
  QueryGraph q;
  VarId x = q.AddVar("x"), y = q.AddVar("y");
  q.AddEdge(x, 0, y);
  q.AddEdge(y, 1, x);
  QueryShape s = AnalyzeShape(q);
  EXPECT_FALSE(s.acyclic);
  ASSERT_EQ(s.cycles.size(), 1u);
  EXPECT_EQ(s.cycles[0].Length(), 2u);
}

TEST(ShapeTest, DisconnectedDetected) {
  QueryGraph q;
  VarId a = q.AddVar("a"), b = q.AddVar("b");
  VarId c = q.AddVar("c"), d = q.AddVar("d");
  q.AddEdge(a, 0, b);
  q.AddEdge(c, 0, d);
  QueryShape s = AnalyzeShape(q);
  EXPECT_FALSE(s.connected);
  EXPECT_TRUE(s.acyclic);
}

TEST(ShapeTest, TwoIndependentCycles) {
  // Two triangles sharing one vertex: cycle basis of size 2.
  QueryGraph q;
  VarId h = q.AddVar("h");
  VarId a = q.AddVar("a"), b = q.AddVar("b");
  VarId c = q.AddVar("c"), d = q.AddVar("d");
  q.AddEdge(h, 0, a);
  q.AddEdge(a, 0, b);
  q.AddEdge(b, 0, h);
  q.AddEdge(h, 0, c);
  q.AddEdge(c, 0, d);
  q.AddEdge(d, 0, h);
  QueryShape s = AnalyzeShape(q);
  EXPECT_TRUE(s.connected);
  EXPECT_EQ(s.cycles.size(), 2u);
}

TEST(ShapeTest, EmptyQueryIsTriviallyAcyclic) {
  QueryGraph q;
  QueryShape s = AnalyzeShape(q);
  EXPECT_TRUE(s.connected);
  EXPECT_TRUE(s.acyclic);
}

TEST(ShapeTest, FiveCycle) {
  QueryGraph q = CycleTemplate(5).Instantiate({0, 1, 2, 3, 4});
  QueryShape s = AnalyzeShape(q);
  ASSERT_EQ(s.cycles.size(), 1u);
  EXPECT_EQ(s.cycles[0].Length(), 5u);
}

TEST(ShapeTest, SnowflakeLeavesAreItsSixPendantEdges) {
  QueryGraph q =
      SnowflakeTemplate().Instantiate(std::vector<LabelId>(9, 0));
  const std::vector<bool> leaf = LeafEdges(q);
  // Edges 0-2 join x to m, y and z; the other six end in a leaf variable.
  EXPECT_EQ(leaf, (std::vector<bool>{false, false, false, true, true, true,
                                     true, true, true}));
}

TEST(ShapeTest, StarAndSingleEdgeHaveNoSkeleton) {
  const QueryGraph star = StarTemplate(3).Instantiate({0, 1, 2});
  EXPECT_EQ(LeafEdges(star), (std::vector<bool>{true, true, true}));
  // Both endpoints of a lone edge have degree 1: not a leaf, the skeleton.
  EXPECT_EQ(LeafEdges(Chain(1)), (std::vector<bool>{false}));
}

TEST(ShapeTest, LinksRaiseDegreesSoChordEndpointsAreNeverLeaves) {
  // x -0-> y, x -1-> z: both edges are leaves of the star at x, until a
  // chord links y and z.
  QueryGraph q;
  const VarId x = q.AddVar("x"), y = q.AddVar("y"), z = q.AddVar("z");
  q.AddEdge(x, 0, y);
  q.AddEdge(x, 1, z);
  EXPECT_EQ(LeafEdges(q), (std::vector<bool>{true, true}));
  EXPECT_EQ(LeafEdges(q, {{y, z}}), (std::vector<bool>{false, false}));
}

TEST(ShapeTest, CycleHasNoLeaves) {
  const QueryGraph q = DiamondTemplate().Instantiate({0, 1, 2, 3});
  EXPECT_EQ(LeafEdges(q), std::vector<bool>(4, false));
}

}  // namespace
}  // namespace wireframe
