#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/answer_graph.h"
#include "util/csr.h"
#include "util/random.h"

namespace wireframe {
namespace {

TEST(PairSetTest, AddAndContains) {
  PairSet s({{1, 2}});
  EXPECT_TRUE(s.Contains(1, 2));
  EXPECT_FALSE(s.Contains(2, 1));
  EXPECT_EQ(s.Size(), 1u);
}

TEST(PairSetTest, EraseUpdatesCounts) {
  PairSet s({{1, 2}, {1, 3}, {4, 2}});
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
  PairSet s({{1, 2}, {1, 3}, {4, 3}});
  EXPECT_EQ(s.DistinctSrcCount(), 2u);
  EXPECT_EQ(s.DistinctDstCount(), 2u);
  s.Erase(1, 2);
  s.Erase(1, 3);
  EXPECT_EQ(s.DistinctSrcCount(), 1u);
}

TEST(PairSetTest, ForEachFwdSkipsTombstones) {
  PairSet s({{1, 2}, {1, 3}, {1, 4}});
  s.Erase(1, 3);
  std::vector<NodeId> got;
  s.ForEachFwd(1, [&](NodeId v) { got.push_back(v); });
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<NodeId>{2, 4}));
  s.ForEachFwd(99, [&](NodeId) { FAIL() << "no pairs from 99"; });
}

TEST(PairSetTest, ForEachBwd) {
  PairSet s({{1, 9}, {2, 9}});
  s.Erase(1, 9);
  std::vector<NodeId> got;
  s.ForEachBwd(9, [&](NodeId u) { got.push_back(u); });
  EXPECT_EQ(got, (std::vector<NodeId>{2}));
}

TEST(PairSetTest, ForEachPairVisitsLiveOnly) {
  PairSet s({{1, 2}, {3, 4}, {5, 6}});
  s.Erase(3, 4);
  std::set<std::pair<NodeId, NodeId>> got;
  s.ForEachPair([&](NodeId u, NodeId v) { got.insert({u, v}); });
  EXPECT_EQ(got, (std::set<std::pair<NodeId, NodeId>>{{1, 2}, {5, 6}}));
}

TEST(PairSetTest, ForEachSrcDst) {
  PairSet s({{1, 2}, {1, 3}, {4, 3}});
  std::set<NodeId> srcs, dsts;
  s.ForEachSrc([&](NodeId u) { srcs.insert(u); });
  s.ForEachDst([&](NodeId v) { dsts.insert(v); });
  EXPECT_EQ(srcs, (std::set<NodeId>{1, 4}));
  EXPECT_EQ(dsts, (std::set<NodeId>{2, 3}));
}

TEST(PairSetTest, EraseDuringFwdIterationIsSafe) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId v = 0; v < 10; ++v) pairs.emplace_back(7, 100 + v);
  PairSet s(pairs);
  std::vector<NodeId> visited;
  s.ForEachFwd(7, [&](NodeId v) {
    visited.push_back(v);
    s.Erase(7, v);
  });
  EXPECT_EQ(visited.size(), 10u);
  EXPECT_EQ(s.Size(), 0u);
  EXPECT_EQ(s.SrcCount(7), 0u);
}

TEST(PairSetShardTest, ConcatShardsMatchesOneList) {
  // Build the same pair set twice: from one list, and from the same list
  // partitioned into shards concatenated in order. Everything observable
  // must coincide.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId u = 0; u < 40; ++u) {
    for (NodeId v = 0; v < 7; ++v) pairs.emplace_back(u, (u + v) % 25);
  }

  PairSet direct(pairs);

  std::vector<PairSetShard> shards;
  constexpr size_t kShardSize = 23;  // deliberately not a divisor
  for (size_t begin = 0; begin < pairs.size(); begin += kShardSize) {
    PairSetShard& shard = shards.emplace_back();
    const size_t end = std::min(pairs.size(), begin + kShardSize);
    for (size_t i = begin; i < end; ++i) {
      shard.Add(pairs[i].first, pairs[i].second);
    }
    EXPECT_EQ(shard.Size(), end - begin);
  }
  PairSet merged(ConcatShards(shards));

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

TEST(PairSetShardTest, EmptyShardIsANoOp) {
  std::vector<PairSetShard> shards(2);
  shards[0].Add(7, 8);
  EXPECT_TRUE(shards[1].Empty());
  PairSet set(ConcatShards(shards));
  EXPECT_EQ(set.Size(), 1u);
  EXPECT_TRUE(set.Contains(7, 8));
}

TEST(PairSetTest, FreezeKeepsEveryObservable) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId u = 0; u < 30; ++u) {
    for (NodeId v = 0; v < 9; ++v) pairs.emplace_back(u, (u * 3 + v) % 40);
  }
  PairSet mutable_set(pairs), frozen_set(pairs);
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
  PairSet s({{1, 2}});
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
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId v = 0; v < 12; ++v) pairs.emplace_back(5, 100 + v);
  pairs.emplace_back(6, 100);
  PairSet s(pairs);
  s.Erase(5, 103);  // pre-existing tombstone the sweep must skip
  std::vector<NodeId> erased;
  const uint32_t n =
      s.EraseSrc(5, [&](NodeId v, uint32_t) { erased.push_back(v); });
  EXPECT_EQ(n, 11u);
  EXPECT_EQ(erased.size(), 11u);
  EXPECT_EQ(s.SrcCount(5), 0u);
  EXPECT_EQ(s.Size(), 1u);
  EXPECT_TRUE(s.Contains(6, 100));
  // The sweep is reverse over the sorted span.
  EXPECT_EQ(erased.front(), 111u);
  // A second sweep is a no-op.
  EXPECT_EQ(
      s.EraseSrc(5, [&](NodeId, uint32_t) { FAIL() << "nothing left"; }), 0u);
  // Unknown source: no-op.
  EXPECT_EQ(
      s.EraseSrc(42, [&](NodeId, uint32_t) { FAIL() << "unknown src"; }),
      0u);
}

TEST(PairSetTest, EraseDstSweepsExactlyTheLivePairs) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId u = 0; u < 8; ++u) pairs.emplace_back(200 + u, 9);
  pairs.emplace_back(200, 10);
  PairSet s(pairs);
  s.Erase(204, 9);
  std::vector<NodeId> erased;
  const uint32_t n =
      s.EraseDst(9, [&](NodeId u, uint32_t) { erased.push_back(u); });
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
  PairSet s({{1, 2}});
  s.Freeze();
  ASSERT_TRUE(s.IsFrozen());
  EXPECT_DEATH(s.Erase(1, 2), "frozen");
  EXPECT_DEATH(s.EraseSrc(1, [](NodeId, uint32_t) {}), "frozen");
  EXPECT_DEATH(s.EraseDst(2, [](NodeId, uint32_t) {}), "frozen");
}

// A set is built from a duplicate-free list and does not deduplicate;
// debug builds check the contract.
TEST(PairSetDeathTest, DuplicateInputFailsTheDebugCheck) {
  EXPECT_DEBUG_DEATH({ PairSet set({{1, 2}, {3, 4}, {1, 2}}); },
                     "duplicates");
}

TEST(PairSetTest, FrozenByteSizeIsZeroUntilFrozenThenPositive) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId v = 0; v < 16; ++v) pairs.emplace_back(1, 100 + v);
  PairSet s(pairs);
  EXPECT_EQ(s.FrozenByteSize(), 0u);
  s.Freeze();
  // At minimum the fwd+bwd neighbor arrays: 2 directions x 16 pairs.
  EXPECT_GE(s.FrozenByteSize(), 2 * 16 * sizeof(NodeId));
}

TEST(PairSetTest, StressManyPairs) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId u = 0; u < 100; ++u) {
    for (NodeId v = 0; v < 20; ++v) pairs.emplace_back(u, v);
  }
  PairSet s(pairs);
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

// Seeded model test: a PairSet built from a random pair list, in each of
// the three input orders, then shrunk by random Erase / EraseSrc /
// EraseDst calls, must agree with a std::set model on every observable —
// before and after Freeze — and every erase sweep must hand back the
// model's count for the neighbor it reports.
TEST(PairSetTest, MatchesStdSetModelUnderRandomOps) {
  using Model = std::set<std::pair<NodeId, NodeId>>;
  Rng rng(1234);
  for (int trial = 0; trial < 60; ++trial) {
    // Endpoints come from a pool of 12 ids, so shared endpoints (and
    // cascading counts) are common at every id range. The ranges walk the
    // radix build of the second direction through one digit pass (ids
    // below 2^11, Csr's direct index on), two and three passes; the two
    // widest also skip the direct index.
    const NodeId ranges[] = {12, 1u << 12, 1u << 23, 1u << 31};
    const NodeId id_range = ranges[trial % 4];
    std::vector<NodeId> pool;
    for (int i = 0; i < 12; ++i) {
      pool.push_back(static_cast<NodeId>(rng.Uniform(id_range)));
    }
    Model model;
    const uint64_t draws = rng.Uniform(80);
    for (uint64_t i = 0; i < draws; ++i) {
      model.emplace(pool[rng.Uniform(pool.size())],
                    pool[rng.Uniform(pool.size())]);
    }
    auto model_src_count = [&](NodeId u) {
      return static_cast<uint32_t>(std::count_if(
          model.begin(), model.end(), [&](auto p) { return p.first == u; }));
    };
    auto model_dst_count = [&](NodeId v) {
      return static_cast<uint32_t>(std::count_if(
          model.begin(), model.end(), [&](auto p) { return p.second == v; }));
    };
    std::vector<std::pair<NodeId, NodeId>> input(model.begin(), model.end());
    switch (trial % 3) {
      case 0:  // (src, dst) order, as a forward extension or chord yields
        break;
      case 1:  // (dst, src) order, as a backward extension yields
        std::sort(input.begin(), input.end(), [](auto a, auto b) {
          return std::make_pair(a.second, a.first) <
                 std::make_pair(b.second, b.first);
        });
        break;
      default:  // no order
        for (size_t i = input.size(); i > 1; --i) {
          std::swap(input[i - 1], input[rng.Uniform(i)]);
        }
        break;
    }
    PairSet set(input);

    std::vector<NodeId> ids;  // every endpoint ever present, plus a miss
    for (const auto& [u, v] : model) {
      ids.push_back(u);
      ids.push_back(v);
    }
    ids.push_back(id_range + 1);

    auto check = [&](const char* stage) {
      SCOPED_TRACE(std::string(stage) + ", trial " + std::to_string(trial));
      ASSERT_EQ(set.Size(), model.size());
      std::map<NodeId, uint32_t> src_count, dst_count;
      for (const auto& [u, v] : model) {
        ++src_count[u];
        ++dst_count[v];
      }
      EXPECT_EQ(set.DistinctSrcCount(), src_count.size());
      EXPECT_EQ(set.DistinctDstCount(), dst_count.size());
      for (NodeId id : ids) {
        EXPECT_EQ(set.SrcCount(id), src_count.count(id) ? src_count[id] : 0);
        EXPECT_EQ(set.DstCount(id), dst_count.count(id) ? dst_count[id] : 0);
        std::vector<NodeId> fwd, bwd, want_fwd, want_bwd;
        set.ForEachFwd(id, [&](NodeId v) { fwd.push_back(v); });
        set.ForEachBwd(id, [&](NodeId u) { bwd.push_back(u); });
        for (const auto& [u, v] : model) {
          if (u == id) want_fwd.push_back(v);
          if (v == id) want_bwd.push_back(u);
        }
        std::sort(want_bwd.begin(), want_bwd.end());
        EXPECT_EQ(fwd, want_fwd) << "fwd of " << id;
        EXPECT_EQ(bwd, want_bwd) << "bwd of " << id;
        for (NodeId other : ids) {
          EXPECT_EQ(set.Contains(id, other), model.count({id, other}) == 1);
        }
      }
      Model pairs;
      set.ForEachPair([&](NodeId u, NodeId v) {
        EXPECT_TRUE(pairs.emplace(u, v).second) << "pair visited twice";
      });
      EXPECT_EQ(pairs, model);
      std::vector<NodeId> srcs, dsts, want_srcs, want_dsts;
      set.ForEachSrc([&](NodeId u) { srcs.push_back(u); });
      set.ForEachDst([&](NodeId v) { dsts.push_back(v); });
      for (const auto& [u, c] : src_count) want_srcs.push_back(u);
      for (const auto& [v, c] : dst_count) want_dsts.push_back(v);
      EXPECT_EQ(srcs, want_srcs);
      EXPECT_EQ(dsts, want_dsts);
    };
    check("built");

    const uint64_t ops = rng.Uniform(12);
    for (uint64_t op = 0; op < ops; ++op) {
      const NodeId a = ids[rng.Uniform(ids.size())];
      const NodeId b = ids[rng.Uniform(ids.size())];
      switch (rng.Uniform(3)) {
        case 0:
          EXPECT_EQ(set.Erase(a, b), model.erase({a, b}) == 1);
          break;
        case 1: {
          const uint32_t want = model_src_count(a);
          uint32_t calls = 0;
          const uint32_t n = set.EraseSrc(a, [&](NodeId v, uint32_t left) {
            ++calls;
            EXPECT_EQ(model.erase({a, v}), 1u) << "erased (" << a << ", "
                                                << v << ") twice or never";
            EXPECT_EQ(left, model_dst_count(v)) << "count handed back for "
                                                << v;
          });
          EXPECT_EQ(n, want);
          EXPECT_EQ(calls, want);
          EXPECT_EQ(model_src_count(a), 0u);
          EXPECT_EQ(set.SrcCount(a), 0u);
          break;
        }
        default: {
          const uint32_t want = model_dst_count(b);
          uint32_t calls = 0;
          const uint32_t n = set.EraseDst(b, [&](NodeId u, uint32_t left) {
            ++calls;
            EXPECT_EQ(model.erase({u, b}), 1u) << "erased (" << u << ", "
                                                << b << ") twice or never";
            EXPECT_EQ(left, model_src_count(u)) << "count handed back for "
                                                << u;
          });
          EXPECT_EQ(n, want);
          EXPECT_EQ(calls, want);
          EXPECT_EQ(model_dst_count(b), 0u);
          EXPECT_EQ(set.DstCount(b), 0u);
          break;
        }
      }
    }
    check("after erasures");

    set.Freeze();
    check("frozen");
    std::vector<std::pair<NodeId, NodeId>> live(model.begin(), model.end());
    std::vector<std::pair<NodeId, NodeId>> reversed;
    for (const auto& [u, v] : live) reversed.emplace_back(v, u);
    const Csr want_fwd = Csr::Build(live);
    const Csr want_bwd = Csr::Build(reversed);
    for (NodeId id : ids) {
      const std::span<const NodeId> fwd = set.FwdNeighbors(id);
      const std::span<const NodeId> bwd = set.BwdNeighbors(id);
      const std::span<const NodeId> wf = want_fwd.Neighbors(id);
      const std::span<const NodeId> wb = want_bwd.Neighbors(id);
      EXPECT_TRUE(std::equal(fwd.begin(), fwd.end(), wf.begin(), wf.end()))
          << "frozen fwd span of " << id;
      EXPECT_TRUE(std::equal(bwd.begin(), bwd.end(), wb.begin(), wb.end()))
          << "frozen bwd span of " << id;
    }
    EXPECT_EQ(set.FrozenByteSize(), want_fwd.ByteSize() + want_bwd.ByteSize());
  }
}

}  // namespace
}  // namespace wireframe
