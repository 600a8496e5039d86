#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/answer_graph.h"

namespace wireframe {
namespace {

TEST(PairSetTest, AddAndContains) {
  PairSet s;
  EXPECT_TRUE(s.Add(1, 2));
  EXPECT_TRUE(s.Contains(1, 2));
  EXPECT_FALSE(s.Contains(2, 1));
  EXPECT_EQ(s.Size(), 1u);
}

TEST(PairSetTest, AddDeduplicates) {
  PairSet s;
  EXPECT_TRUE(s.Add(1, 2));
  EXPECT_FALSE(s.Add(1, 2));
  EXPECT_EQ(s.Size(), 1u);
  EXPECT_EQ(s.SrcCount(1), 1u);
}

TEST(PairSetTest, EraseUpdatesCounts) {
  PairSet s;
  s.Add(1, 2);
  s.Add(1, 3);
  s.Add(4, 2);
  EXPECT_EQ(s.SrcCount(1), 2u);
  EXPECT_EQ(s.DstCount(2), 2u);
  EXPECT_TRUE(s.Erase(1, 2));
  EXPECT_FALSE(s.Erase(1, 2));  // already gone
  EXPECT_EQ(s.Size(), 2u);
  EXPECT_EQ(s.SrcCount(1), 1u);
  EXPECT_EQ(s.DstCount(2), 1u);
  EXPECT_FALSE(s.Contains(1, 2));
}

TEST(PairSetTest, DistinctCounts) {
  PairSet s;
  s.Add(1, 2);
  s.Add(1, 3);
  s.Add(4, 3);
  EXPECT_EQ(s.DistinctSrcCount(), 2u);
  EXPECT_EQ(s.DistinctDstCount(), 2u);
  s.Erase(1, 2);
  s.Erase(1, 3);
  EXPECT_EQ(s.DistinctSrcCount(), 1u);
}

TEST(PairSetTest, ForEachFwdSkipsTombstones) {
  PairSet s;
  s.Add(1, 2);
  s.Add(1, 3);
  s.Add(1, 4);
  s.Erase(1, 3);
  std::vector<NodeId> got;
  s.ForEachFwd(1, [&](NodeId v) { got.push_back(v); });
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<NodeId>{2, 4}));
  s.ForEachFwd(99, [&](NodeId) { FAIL() << "no pairs from 99"; });
}

TEST(PairSetTest, ForEachBwd) {
  PairSet s;
  s.Add(1, 9);
  s.Add(2, 9);
  s.Erase(1, 9);
  std::vector<NodeId> got;
  s.ForEachBwd(9, [&](NodeId u) { got.push_back(u); });
  EXPECT_EQ(got, (std::vector<NodeId>{2}));
}

TEST(PairSetTest, ForEachPairVisitsLiveOnly) {
  PairSet s;
  s.Add(1, 2);
  s.Add(3, 4);
  s.Add(5, 6);
  s.Erase(3, 4);
  std::set<std::pair<NodeId, NodeId>> got;
  s.ForEachPair([&](NodeId u, NodeId v) { got.insert({u, v}); });
  EXPECT_EQ(got, (std::set<std::pair<NodeId, NodeId>>{{1, 2}, {5, 6}}));
}

TEST(PairSetTest, ForEachSrcDst) {
  PairSet s;
  s.Add(1, 2);
  s.Add(1, 3);
  s.Add(4, 3);
  std::set<NodeId> srcs, dsts;
  s.ForEachSrc([&](NodeId u) { srcs.insert(u); });
  s.ForEachDst([&](NodeId v) { dsts.insert(v); });
  EXPECT_EQ(srcs, (std::set<NodeId>{1, 4}));
  EXPECT_EQ(dsts, (std::set<NodeId>{2, 3}));
}

TEST(PairSetTest, EraseDuringFwdIterationIsSafe) {
  PairSet s;
  for (NodeId v = 0; v < 10; ++v) s.Add(7, 100 + v);
  std::vector<NodeId> visited;
  s.ForEachFwd(7, [&](NodeId v) {
    visited.push_back(v);
    s.Erase(7, v);
  });
  EXPECT_EQ(visited.size(), 10u);
  EXPECT_EQ(s.Size(), 0u);
  EXPECT_EQ(s.SrcCount(7), 0u);
}

TEST(PairSetShardTest, MergeShardMatchesDirectAdds) {
  // Build the same pair set twice: direct Adds in one stream, and the
  // same stream partitioned into shards merged in order. Everything
  // observable must coincide.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId u = 0; u < 40; ++u) {
    for (NodeId v = 0; v < 7; ++v) pairs.emplace_back(u, (u + v) % 25);
  }

  PairSet direct;
  for (auto [u, v] : pairs) direct.Add(u, v);

  PairSet merged;
  constexpr size_t kShardSize = 23;  // deliberately not a divisor
  for (size_t begin = 0; begin < pairs.size(); begin += kShardSize) {
    PairSetShard shard;
    const size_t end = std::min(pairs.size(), begin + kShardSize);
    for (size_t i = begin; i < end; ++i) {
      shard.Add(pairs[i].first, pairs[i].second);
    }
    EXPECT_EQ(shard.Size(), end - begin);
    merged.MergeShard(shard);
  }

  ASSERT_EQ(merged.Size(), direct.Size());
  EXPECT_EQ(merged.DistinctSrcCount(), direct.DistinctSrcCount());
  EXPECT_EQ(merged.DistinctDstCount(), direct.DistinctDstCount());
  std::set<std::pair<NodeId, NodeId>> direct_pairs, merged_pairs;
  direct.ForEachPair(
      [&](NodeId u, NodeId v) { direct_pairs.emplace(u, v); });
  merged.ForEachPair(
      [&](NodeId u, NodeId v) { merged_pairs.emplace(u, v); });
  EXPECT_EQ(merged_pairs, direct_pairs);
  for (NodeId u = 0; u < 40; ++u) {
    EXPECT_EQ(merged.SrcCount(u), direct.SrcCount(u)) << "u=" << u;
  }
}

TEST(PairSetShardTest, MergeShardDeduplicatesAcrossShards) {
  PairSet set;
  PairSetShard a, b;
  a.Add(1, 2);
  a.Add(3, 4);
  b.Add(1, 2);  // duplicate of a's pair
  b.Add(5, 6);
  EXPECT_EQ(set.MergeShard(a), 2u);
  EXPECT_EQ(set.MergeShard(b), 1u) << "duplicate must not re-insert";
  EXPECT_EQ(set.Size(), 3u);
  EXPECT_EQ(set.SrcCount(1), 1u);
}

TEST(PairSetShardTest, EmptyShardIsANoOp) {
  PairSet set;
  set.Add(7, 8);
  PairSetShard empty;
  EXPECT_TRUE(empty.Empty());
  EXPECT_EQ(set.MergeShard(empty), 0u);
  EXPECT_EQ(set.Size(), 1u);
}

TEST(PairSetTest, FreezeKeepsEveryObservable) {
  PairSet mutable_set, frozen_set;
  for (NodeId u = 0; u < 30; ++u) {
    for (NodeId v = 0; v < 9; ++v) {
      mutable_set.Add(u, (u * 3 + v) % 40);
      frozen_set.Add(u, (u * 3 + v) % 40);
    }
  }
  // Erase a slice so freezing has tombstones to skip.
  for (NodeId u = 0; u < 30; u += 3) {
    mutable_set.Erase(u, (u * 3) % 40);
    frozen_set.Erase(u, (u * 3) % 40);
  }
  frozen_set.Freeze();
  ASSERT_TRUE(frozen_set.IsFrozen());

  EXPECT_EQ(frozen_set.Size(), mutable_set.Size());
  EXPECT_EQ(frozen_set.DistinctSrcCount(), mutable_set.DistinctSrcCount());
  EXPECT_EQ(frozen_set.DistinctDstCount(), mutable_set.DistinctDstCount());
  std::set<std::pair<NodeId, NodeId>> mutable_pairs, frozen_pairs;
  mutable_set.ForEachPair(
      [&](NodeId u, NodeId v) { mutable_pairs.emplace(u, v); });
  frozen_set.ForEachPair(
      [&](NodeId u, NodeId v) { frozen_pairs.emplace(u, v); });
  EXPECT_EQ(frozen_pairs, mutable_pairs);
  for (NodeId u = 0; u < 45; ++u) {
    EXPECT_EQ(frozen_set.SrcCount(u), mutable_set.SrcCount(u)) << u;
    EXPECT_EQ(frozen_set.DstCount(u), mutable_set.DstCount(u)) << u;
    for (NodeId v = 0; v < 45; ++v) {
      EXPECT_EQ(frozen_set.Contains(u, v), mutable_set.Contains(u, v))
          << u << "," << v;
    }
  }
  // Fwd/bwd scans agree as sets; frozen spans are additionally sorted.
  for (NodeId u = 0; u < 45; ++u) {
    std::vector<NodeId> frozen_fwd, mutable_fwd;
    frozen_set.ForEachFwd(u, [&](NodeId v) { frozen_fwd.push_back(v); });
    mutable_set.ForEachFwd(u, [&](NodeId v) { mutable_fwd.push_back(v); });
    EXPECT_TRUE(std::is_sorted(frozen_fwd.begin(), frozen_fwd.end()));
    std::sort(mutable_fwd.begin(), mutable_fwd.end());
    EXPECT_EQ(frozen_fwd, mutable_fwd) << "u=" << u;
  }
}

TEST(PairSetTest, FreezeIsIdempotent) {
  PairSet s;
  s.Add(1, 2);
  s.Freeze();
  s.Freeze();
  EXPECT_EQ(s.Size(), 1u);
  EXPECT_TRUE(s.Contains(1, 2));
}

TEST(PairSetTest, FreezeOfEmptySet) {
  PairSet s;
  s.Freeze();
  EXPECT_TRUE(s.IsFrozen());
  EXPECT_EQ(s.Size(), 0u);
  EXPECT_FALSE(s.Contains(0, 0));
  s.ForEachPair([](NodeId, NodeId) { FAIL() << "empty frozen set"; });
}

TEST(PairSetTest, EraseSrcSweepsExactlyTheLivePairs) {
  PairSet s;
  for (NodeId v = 0; v < 12; ++v) s.Add(5, 100 + v);
  s.Add(6, 100);
  s.Erase(5, 103);  // pre-existing tombstone the sweep must skip
  std::vector<NodeId> erased;
  const uint32_t n = s.EraseSrc(5, [&](NodeId v) { erased.push_back(v); });
  EXPECT_EQ(n, 11u);
  EXPECT_EQ(erased.size(), 11u);
  EXPECT_EQ(s.SrcCount(5), 0u);
  EXPECT_EQ(s.Size(), 1u);
  EXPECT_TRUE(s.Contains(6, 100));
  // The sweep is reverse over the append-order list.
  EXPECT_EQ(erased.front(), 111u);
  // A second sweep is a no-op.
  EXPECT_EQ(s.EraseSrc(5, [&](NodeId) { FAIL() << "nothing left"; }), 0u);
  // Unknown source: no-op.
  EXPECT_EQ(s.EraseSrc(42, [&](NodeId) { FAIL() << "unknown src"; }), 0u);
}

TEST(PairSetTest, EraseDstSweepsExactlyTheLivePairs) {
  PairSet s;
  for (NodeId u = 0; u < 8; ++u) s.Add(200 + u, 9);
  s.Add(200, 10);
  s.Erase(204, 9);
  std::vector<NodeId> erased;
  const uint32_t n = s.EraseDst(9, [&](NodeId u) { erased.push_back(u); });
  EXPECT_EQ(n, 7u);
  EXPECT_EQ(s.DstCount(9), 0u);
  EXPECT_EQ(s.Size(), 1u);
  EXPECT_TRUE(s.Contains(200, 10));
}

// Frozen sets are shared read-only across queries (the runtime's AG
// cache hands one AG to any number of concurrent runs), so mutating one
// must die loudly in EVERY build type. These run in Release too — where
// the former DCHECK-only guard would have been silent memory corruption;
// that regression is exactly what they pin down.
TEST(PairSetDeathTest, FrozenMutatorsDieInAllBuildTypes) {
  PairSet s;
  s.Add(1, 2);
  s.Freeze();
  ASSERT_TRUE(s.IsFrozen());
  EXPECT_DEATH(s.Add(3, 4), "frozen");
  EXPECT_DEATH(s.Erase(1, 2), "frozen");
  EXPECT_DEATH(s.EraseSrc(1, [](NodeId) {}), "frozen");
  EXPECT_DEATH(s.EraseDst(2, [](NodeId) {}), "frozen");
  PairSetShard shard;
  shard.Add(7, 8);
  EXPECT_DEATH(s.MergeShard(shard), "frozen");
}

TEST(PairSetTest, FrozenByteSizeIsZeroUntilFrozenThenPositive) {
  PairSet s;
  for (NodeId v = 0; v < 16; ++v) s.Add(1, 100 + v);
  EXPECT_EQ(s.FrozenByteSize(), 0u);
  s.Freeze();
  // At minimum the fwd+bwd neighbor arrays: 2 directions x 16 pairs.
  EXPECT_GE(s.FrozenByteSize(), 2 * 16 * sizeof(NodeId));
}

TEST(PairSetTest, StressManyPairs) {
  PairSet s;
  for (NodeId u = 0; u < 100; ++u) {
    for (NodeId v = 0; v < 20; ++v) s.Add(u, v);
  }
  EXPECT_EQ(s.Size(), 2000u);
  EXPECT_EQ(s.DistinctSrcCount(), 100u);
  EXPECT_EQ(s.DistinctDstCount(), 20u);
  for (NodeId u = 0; u < 100; u += 2) {
    for (NodeId v = 0; v < 20; ++v) s.Erase(u, v);
  }
  EXPECT_EQ(s.Size(), 1000u);
  EXPECT_EQ(s.DistinctSrcCount(), 50u);
  EXPECT_EQ(s.DistinctDstCount(), 20u);
}

}  // namespace
}  // namespace wireframe
