#include "core/answer_graph.h"

#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "query/templates.h"
#include "util/thread_pool.h"

namespace wireframe {
namespace {

// Chain ?v0 -0-> ?v1 -1-> ?v2.
QueryGraph ChainQuery() { return ChainTemplate(2).Instantiate({0, 1}); }

TEST(AnswerGraphTest, ConstructionMirrorsQuery) {
  QueryGraph q = ChainQuery();
  AnswerGraph ag(q);
  EXPECT_EQ(ag.NumEdgeSets(), 2u);
  EXPECT_EQ(ag.NumQueryEdges(), 2u);
  EXPECT_EQ(ag.NumVars(), 3u);
  EXPECT_EQ(ag.SrcVar(0), q.Edge(0).src);
  EXPECT_EQ(ag.DstVar(1), q.Edge(1).dst);
  EXPECT_FALSE(ag.IsMaterialized(0));
}

TEST(AnswerGraphTest, TouchedAfterMaterialization) {
  QueryGraph q = ChainQuery();
  AnswerGraph ag(q);
  EXPECT_FALSE(ag.IsTouched(0));
  ag.Materialize(0, {{10, 20}});
  EXPECT_TRUE(ag.IsTouched(0));
  EXPECT_TRUE(ag.IsTouched(1));
  EXPECT_FALSE(ag.IsTouched(2));  // v2 only touches edge 1
}

TEST(AnswerGraphTest, AlivenessAcrossTwoEdges) {
  QueryGraph q = ChainQuery();
  AnswerGraph ag(q);
  ag.Materialize(0, {{10, 20}, {11, 21}});  // v0, v1
  ag.Materialize(1, {{20, 30}});            // v1, v2

  EXPECT_TRUE(ag.IsAlive(1, 20));   // in both sets at v1
  EXPECT_FALSE(ag.IsAlive(1, 21));  // missing from edge 1
  EXPECT_TRUE(ag.IsAlive(0, 10));
  EXPECT_TRUE(ag.IsAlive(2, 30));
  EXPECT_FALSE(ag.IsAlive(2, 99));
}

TEST(AnswerGraphTest, CandidatesFilterByAliveness) {
  QueryGraph q = ChainQuery();
  AnswerGraph ag(q);
  ag.Materialize(0, {{10, 20}, {11, 21}});
  ag.Materialize(1, {{20, 30}});

  std::set<NodeId> mids;
  ag.ForEachCandidate(1, [&](NodeId c) { mids.insert(c); });
  EXPECT_EQ(mids, (std::set<NodeId>{20}));
  EXPECT_EQ(ag.CandidateCount(1), 1u);
  EXPECT_EQ(ag.CandidateCount(0), 2u);
}

TEST(AnswerGraphTest, CountAtRespectsSide) {
  QueryGraph q = ChainQuery();
  AnswerGraph ag(q);
  ag.Materialize(0, {{10, 20}, {10, 21}});
  EXPECT_EQ(ag.CountAt(0, q.Edge(0).src, 10), 2u);
  EXPECT_EQ(ag.CountAt(0, q.Edge(0).dst, 20), 1u);
  EXPECT_EQ(ag.CountAt(0, q.Edge(0).dst, 10), 0u);
}

TEST(AnswerGraphTest, ChordSlotsExtendIncidence) {
  QueryGraph q = DiamondTemplate().Instantiate({0, 1, 2, 3});
  AnswerGraph ag(q);
  VarId x = q.FindVar("x"), y = q.FindVar("y");
  uint32_t slot = ag.AddChordSlot(x, y);
  EXPECT_EQ(slot, 4u);
  EXPECT_EQ(ag.NumEdgeSets(), 5u);
  EXPECT_EQ(ag.NumQueryEdges(), 4u);
  EXPECT_EQ(ag.SrcVar(slot), x);
  EXPECT_EQ(ag.DstVar(slot), y);
  // Unmaterialized chords do not constrain aliveness.
  ag.Materialize(0, {{1, 2}});
  EXPECT_TRUE(ag.IsAlive(x, 1));
}

TEST(AnswerGraphTest, TotalQueryEdgePairsExcludesChords) {
  QueryGraph q = DiamondTemplate().Instantiate({0, 1, 2, 3});
  AnswerGraph ag(q);
  uint32_t slot = ag.AddChordSlot(q.FindVar("x"), q.FindVar("y"));
  ag.Materialize(0, {{1, 2}});
  ag.Materialize(slot, {{7, 8}, {7, 9}});
  EXPECT_EQ(ag.TotalQueryEdgePairs(), 1u);
}

TEST(AnswerGraphTest, FreezePreservesDerivedState) {
  QueryGraph q = ChainQuery();
  AnswerGraph ag(q);
  ag.Materialize(0, {{1, 10}, {2, 10}, {3, 11}});
  ag.Materialize(1, {{10, 20}, {10, 21}});
  ag.Set(1).Erase(10, 21);  // leave a tombstone for Freeze to compact

  const uint64_t candidates_before = ag.CandidateCount(1);
  ag.Freeze();
  EXPECT_TRUE(ag.IsFrozen());
  EXPECT_TRUE(ag.Set(0).IsFrozen());
  EXPECT_TRUE(ag.Set(1).IsFrozen());
  EXPECT_EQ(ag.TotalQueryEdgePairs(), 4u);
  EXPECT_EQ(ag.CandidateCount(1), candidates_before);
  EXPECT_TRUE(ag.IsAlive(1, 10));
  EXPECT_FALSE(ag.IsAlive(1, 11)) << "11 has no set-1 pair";
  EXPECT_EQ(ag.CountAt(0, 1, 10), 2u);
  std::vector<AgEdgeStats> stats = ag.Stats();
  EXPECT_EQ(stats[0].pairs, 3u);
  EXPECT_EQ(stats[1].pairs, 1u);
  // Idempotent.
  ag.Freeze();
  EXPECT_EQ(ag.TotalQueryEdgePairs(), 4u);
}

TEST(AnswerGraphTest, FreezeWithPoolMatchesSerialFreeze) {
  QueryGraph q = ChainQuery();
  AnswerGraph serial(q), parallel(q);
  for (AnswerGraph* ag : {&serial, &parallel}) {
    std::set<std::pair<NodeId, NodeId>> set0, set1;
    for (NodeId k = 0; k < 50; ++k) {
      set0.emplace(k, 100 + k % 7);
      set1.emplace(100 + k % 7, 200 + k % 3);
    }
    ag->Materialize(0, {set0.begin(), set0.end()});
    ag->Materialize(1, {set1.begin(), set1.end()});
  }
  serial.Freeze();
  ThreadPool pool(4);
  parallel.Freeze(&pool);
  for (uint32_t e = 0; e < 2; ++e) {
    std::set<std::pair<NodeId, NodeId>> a, b;
    serial.Set(e).ForEachPair([&](NodeId u, NodeId v) { a.emplace(u, v); });
    parallel.Set(e).ForEachPair(
        [&](NodeId u, NodeId v) { b.emplace(u, v); });
    EXPECT_EQ(a, b) << "edge " << e;
  }
}

TEST(AnswerGraphTest, StatsPerQueryEdge) {
  QueryGraph q = ChainQuery();
  AnswerGraph ag(q);
  ag.Materialize(0, {{1, 2}, {3, 2}});
  ag.Materialize(1, {{2, 4}});
  std::vector<AgEdgeStats> stats = ag.Stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].pairs, 2u);
  EXPECT_EQ(stats[0].distinct_src, 2u);
  EXPECT_EQ(stats[0].distinct_dst, 1u);
  EXPECT_EQ(stats[1].pairs, 1u);
}

TEST(AnswerGraphDeathTest, MaterializingASetTwiceDies) {
  QueryGraph q = ChainQuery();
  AnswerGraph ag(q);
  ag.Materialize(0, {{1, 2}});
  EXPECT_DEATH(ag.Materialize(0, {{3, 4}}), "materialized twice");
}

}  // namespace
}  // namespace wireframe
