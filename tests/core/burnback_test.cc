#include "core/burnback.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "query/templates.h"
#include "util/random.h"

namespace wireframe {
namespace {

// Naive arc-consistency oracle: repeatedly delete any pair with a dead
// endpoint until quiescent. Returns the number of pairs deleted.
uint64_t OracleFixpoint(AnswerGraph* ag) {
  uint64_t deleted = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (uint32_t e = 0; e < ag->NumEdgeSets(); ++e) {
      if (!ag->IsMaterialized(e)) continue;
      std::vector<std::pair<NodeId, NodeId>> doomed;
      ag->Set(e).ForEachPair([&](NodeId u, NodeId v) {
        if (!ag->IsAlive(ag->SrcVar(e), u) ||
            !ag->IsAlive(ag->DstVar(e), v)) {
          doomed.emplace_back(u, v);
        }
      });
      for (auto [u, v] : doomed) {
        ag->Set(e).Erase(u, v);
        ++deleted;
        changed = true;
      }
    }
  }
  return deleted;
}

QueryGraph RandomConnectedQuery(Rng& rng) {
  const uint32_t num_edges = 2 + static_cast<uint32_t>(rng.Uniform(4));
  QueryGraph q;
  q.AddVar("v0");
  q.AddVar("v1");
  q.AddEdge(0, 0, 1);
  for (uint32_t e = 1; e < num_edges; ++e) {
    VarId a = static_cast<VarId>(rng.Uniform(q.NumVars()));
    VarId b;
    if (rng.Bernoulli(0.5) && q.NumVars() < 5) {
      b = q.AddVar("v" + std::to_string(q.NumVars()));
    } else {
      b = static_cast<VarId>(rng.Uniform(q.NumVars()));
      if (b == a) b = (b + 1) % q.NumVars();
    }
    q.AddEdge(a, e, b);
  }
  return q;
}

TEST(BurnbackTest, KillNodeErasesIncidentPairs) {
  QueryGraph q = ChainTemplate(2).Instantiate({0, 1});
  AnswerGraph ag(q);
  ag.Materialize(0, {{1, 10}, {2, 10}, {3, 11}});
  Burnback bb(&ag);
  uint64_t erased = bb.KillNode(q.FindVar("v1"), 10);
  EXPECT_EQ(erased, 2u);
  EXPECT_EQ(ag.Set(0).Size(), 1u);
  EXPECT_TRUE(ag.Set(0).Contains(3, 11));
}

TEST(BurnbackTest, CascadeAcrossChain) {
  // v0 -e0-> v1 -e1-> v2; kill the only v2 node; everything unravels.
  QueryGraph q = ChainTemplate(2).Instantiate({0, 1});
  AnswerGraph ag(q);
  ag.Materialize(0, {{1, 10}, {2, 10}});
  ag.Materialize(1, {{10, 20}});
  Burnback bb(&ag);
  uint64_t erased = bb.KillNode(q.FindVar("v2"), 20);
  EXPECT_EQ(erased, 3u);
  EXPECT_EQ(ag.Set(0).Size(), 0u);
  EXPECT_EQ(ag.Set(1).Size(), 0u);
}

TEST(BurnbackTest, CascadeStopsWhereSupported) {
  QueryGraph q = ChainTemplate(2).Instantiate({0, 1});
  AnswerGraph ag(q);
  ag.Materialize(0, {{1, 10}});
  ag.Materialize(1, {{10, 20}, {10, 21}});
  Burnback bb(&ag);
  // Killing one of v2's two nodes leaves v1=10 supported.
  bb.KillNode(q.FindVar("v2"), 21);
  EXPECT_EQ(ag.Set(1).Size(), 1u);
  EXPECT_EQ(ag.Set(0).Size(), 1u);
  EXPECT_TRUE(ag.IsAlive(q.FindVar("v1"), 10));
}

TEST(BurnbackTest, ErasePairCascades) {
  QueryGraph q = ChainTemplate(2).Instantiate({0, 1});
  AnswerGraph ag(q);
  ag.Materialize(0, {{1, 10}});
  ag.Materialize(1, {{10, 20}});
  Burnback bb(&ag);
  uint64_t erased = bb.ErasePair(1, 10, 20);
  EXPECT_EQ(erased, 2u);  // the pair itself + cascaded (1,10)
  EXPECT_EQ(ag.Set(0).Size(), 0u);
}

TEST(BurnbackTest, EraseMissingPairIsNoop) {
  QueryGraph q = ChainTemplate(1).Instantiate({0});
  AnswerGraph ag(q);
  ag.Materialize(0, {{1, 2}});
  Burnback bb(&ag);
  EXPECT_EQ(bb.ErasePair(0, 5, 6), 0u);
  EXPECT_EQ(ag.Set(0).Size(), 1u);
}

TEST(BurnbackTest, PruneAfterExtensionRemovesFailedCandidates) {
  // Star: x -e0-> a, x -e1-> b. After e0, x has {1,2}; e1 extends only 1.
  QueryGraph q = StarTemplate(2).Instantiate({0, 1});
  AnswerGraph ag(q);
  VarId x = q.FindVar("x");
  ag.Materialize(0, {{1, 10}, {2, 11}});
  ag.Materialize(1, {{1, 20}});
  Burnback bb(&ag);
  uint64_t erased = bb.PruneAfterExtension(1, /*src_was_touched=*/true,
                                           /*dst_was_touched=*/false);
  EXPECT_EQ(erased, 1u);  // (2,11) burned from e0
  EXPECT_FALSE(ag.IsAlive(x, 2));
  EXPECT_TRUE(ag.IsAlive(x, 1));
}

TEST(BurnbackTest, PruneAfterExtensionSeedsKeysWithNoLivePair) {
  // Star: x -e0-> a, x -e1-> b. After e0, x has {1,2,3}. e1 holds x=1 and
  // x=2, but x=2's only pair is erased directly, not through burnback:
  // the key is still in e1's sorted keys with a live count of 0. Pruning
  // must seed it like x=3, which e1 never held.
  QueryGraph q = StarTemplate(2).Instantiate({0, 1});
  AnswerGraph ag(q);
  VarId x = q.FindVar("x");
  ag.Materialize(0, {{1, 10}, {2, 11}, {3, 12}});
  ag.Materialize(1, {{1, 20}, {2, 21}});
  ASSERT_TRUE(ag.Set(1).Erase(2, 21));
  Burnback bb(&ag);
  uint64_t erased = bb.PruneAfterExtension(1, /*src_was_touched=*/true,
                                           /*dst_was_touched=*/false);
  EXPECT_EQ(erased, 2u);  // (2,11) and (3,12) burned from e0
  EXPECT_TRUE(ag.IsAlive(x, 1));
  EXPECT_FALSE(ag.IsAlive(x, 2));
  EXPECT_FALSE(ag.IsAlive(x, 3));
  EXPECT_EQ(ag.Set(0).Size(), 1u);
  EXPECT_TRUE(ag.Set(0).Contains(1, 10));
}

// Property: mimicking the generator's interleaved extend-then-prune flow
// (new pairs' endpoints on already-touched variables are drawn from live
// candidates), the burnback fixpoint is exactly arc consistency — the
// naive oracle finds nothing left to delete.
TEST(BurnbackTest, InterleavedPruningReachesArcConsistency) {
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    QueryGraph q = RandomConnectedQuery(rng);
    AnswerGraph ag(q);
    Burnback bb(&ag);
    for (uint32_t e = 0; e < q.NumEdges(); ++e) {
      const VarId sv = q.Edge(e).src, dv = q.Edge(e).dst;
      const bool src_touched = ag.IsTouched(sv);
      const bool dst_touched = ag.IsTouched(dv);
      std::vector<NodeId> src_pool, dst_pool;
      if (src_touched) {
        ag.ForEachCandidate(sv, [&](NodeId c) { src_pool.push_back(c); });
      }
      if (dst_touched) {
        ag.ForEachCandidate(dv, [&](NodeId c) { dst_pool.push_back(c); });
      }
      // A touched variable whose candidate set is already empty admits no
      // further pairs (the generator would find no extensions either).
      const bool extendable = (!src_touched || !src_pool.empty()) &&
                              (!dst_touched || !dst_pool.empty());
      const uint32_t pairs =
          extendable ? 1 + static_cast<uint32_t>(rng.Uniform(10)) : 0;
      std::set<std::pair<NodeId, NodeId>> drawn;
      for (uint32_t k = 0; k < pairs; ++k) {
        NodeId u = src_touched ? src_pool[rng.Uniform(src_pool.size())]
                               : static_cast<NodeId>(rng.Uniform(6));
        NodeId v = dst_touched ? dst_pool[rng.Uniform(dst_pool.size())]
                               : static_cast<NodeId>(100 + rng.Uniform(6));
        drawn.emplace(u, v);
      }
      ag.Materialize(e, {drawn.begin(), drawn.end()});
      bb.PruneAfterExtension(e, src_touched, dst_touched);
    }
    EXPECT_EQ(OracleFixpoint(&ag), 0u)
        << "trial " << trial << ": burnback missed deletions";
  }
}

// Oracle equivalence with single-kill entry points: killing the same node
// through Burnback and through the oracle path gives identical sets.
TEST(BurnbackTest, KillMatchesOracleDeletion) {
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    QueryGraph q = ChainTemplate(3).Instantiate({0, 1, 2});
    AnswerGraph fast(q), slow(q);
    for (uint32_t e = 0; e < 3; ++e) {
      std::set<std::pair<NodeId, NodeId>> drawn;
      for (int k = 0; k < 8; ++k) {
        // Chain var domains overlap so cascades actually propagate.
        NodeId u = static_cast<NodeId>(rng.Uniform(4) + 10 * e);
        NodeId v = static_cast<NodeId>(rng.Uniform(4) + 10 * (e + 1));
        drawn.emplace(u, v);
      }
      fast.Materialize(e, {drawn.begin(), drawn.end()});
      slow.Materialize(e, {drawn.begin(), drawn.end()});
    }
    // Settle both to a consistent state first.
    Burnback bb(&fast);
    for (uint32_t e = 0; e < 3; ++e) bb.PruneAfterExtension(e, true, true);
    OracleFixpoint(&slow);
    for (uint32_t e = 0; e < 3; ++e) {
      ASSERT_EQ(fast.Set(e).Size(), slow.Set(e).Size()) << "trial " << trial;
    }

    // Now kill one surviving node in both and re-compare.
    VarId v1 = q.FindVar("v1");
    NodeId victim = kInvalidNode;
    if (fast.IsTouched(v1)) {
      fast.ForEachCandidate(v1, [&](NodeId c) {
        if (victim == kInvalidNode) victim = c;
      });
    }
    if (victim == kInvalidNode) continue;
    bb.KillNode(v1, victim);
    // Oracle version: delete the victim's pairs manually, then fixpoint.
    for (uint32_t e = 0; e < 3; ++e) {
      std::vector<std::pair<NodeId, NodeId>> doomed;
      slow.Set(e).ForEachPair([&](NodeId u, NodeId v) {
        if ((slow.SrcVar(e) == v1 && u == victim) ||
            (slow.DstVar(e) == v1 && v == victim)) {
          doomed.emplace_back(u, v);
        }
      });
      for (auto [u, v] : doomed) slow.Set(e).Erase(u, v);
    }
    OracleFixpoint(&slow);
    for (uint32_t e = 0; e < 3; ++e) {
      EXPECT_EQ(fast.Set(e).Size(), slow.Set(e).Size()) << "trial " << trial;
      slow.Set(e).ForEachPair([&](NodeId u, NodeId v) {
        EXPECT_TRUE(fast.Set(e).Contains(u, v));
      });
    }
  }
}

}  // namespace
}  // namespace wireframe
