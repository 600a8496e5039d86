#include "runtime/ag_cache.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/answer_graph.h"
#include "query/query_graph.h"

namespace wireframe {
namespace runtime {
namespace {

/// A cache value holding a frozen one-edge AG with `pairs` pairs (its
/// byte size scales with `pairs`, which is what the quota tests need).
std::shared_ptr<const CachedAg> MakeAg(uint32_t pairs) {
  QueryGraph q;
  const VarId x = q.AddVar("x"), y = q.AddVar("y");
  q.AddEdge(x, 0, y);
  auto ag = std::make_shared<AnswerGraph>(q);
  std::vector<std::pair<NodeId, NodeId>> edge;
  for (uint32_t i = 0; i < pairs; ++i) edge.emplace_back(i, i + 1);
  ag->Materialize(0, std::move(edge));
  ag->Freeze();
  auto value = std::make_shared<CachedAg>();
  value->ag = std::move(ag);
  value->query = q;
  value->to_canonical = {0, 1};
  return value;
}

TEST(AgCacheTest, LookupMissThenFillThenHit) {
  AgCache cache({1 << 20});
  EXPECT_TRUE(cache.enabled(0));
  EXPECT_EQ(cache.Lookup(0, "k"), nullptr);
  EXPECT_TRUE(cache.BeginFill(0, "k"));
  cache.EndFill(0, "k", MakeAg(10), 0.5);
  const auto hit = cache.Lookup(0, "k");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->ag->TotalQueryEdgePairs(), 10u);
  const AgCache::Counters c = cache.counters(0);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.inserts, 1u);
  EXPECT_EQ(c.entries, 1u);
  EXPECT_GT(c.bytes, 0u);
}

TEST(AgCacheTest, SingleFlightFillClaim) {
  AgCache cache({1 << 20});
  EXPECT_TRUE(cache.BeginFill(0, "k"));
  EXPECT_FALSE(cache.BeginFill(0, "k"));  // second claimant runs cold
  cache.EndFill(0, "k", nullptr, 0.0);    // aborted fill releases the key
  EXPECT_TRUE(cache.BeginFill(0, "k"));
  cache.EndFill(0, "k", MakeAg(4), 0.1);
  EXPECT_FALSE(cache.BeginFill(0, "k"));  // resident: no fill needed
}

TEST(AgCacheTest, TenantsArePartitioned) {
  AgCache cache({1 << 20, 1 << 20, 0});
  EXPECT_TRUE(cache.BeginFill(0, "k"));
  cache.EndFill(0, "k", MakeAg(4), 0.1);
  EXPECT_NE(cache.Lookup(0, "k"), nullptr);
  EXPECT_EQ(cache.Lookup(1, "k"), nullptr);  // other tenant: miss
  EXPECT_FALSE(cache.enabled(2));
  EXPECT_EQ(cache.counters(1).misses, 1u);
  EXPECT_EQ(cache.counters(0).hits, 1u);
}

TEST(AgCacheTest, EvictionIsCostTimesFrequency) {
  // Quota fits roughly two of the three entries; the cheap, never-hit
  // one must leave first.
  const uint64_t one = MakeAg(64)->ag->FrozenByteSize();
  AgCache cache({2 * one + one / 2});
  ASSERT_TRUE(cache.BeginFill(0, "cheap"));
  cache.EndFill(0, "cheap", MakeAg(64), 0.001);
  ASSERT_TRUE(cache.BeginFill(0, "hot"));
  cache.EndFill(0, "hot", MakeAg(64), 0.002);
  for (int i = 0; i < 5; ++i) EXPECT_NE(cache.Lookup(0, "hot"), nullptr);
  ASSERT_TRUE(cache.BeginFill(0, "expensive"));
  cache.EndFill(0, "expensive", MakeAg(64), 10.0);
  const AgCache::Counters c = cache.counters(0);
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.entries, 2u);
  EXPECT_EQ(cache.Lookup(0, "cheap"), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(0, "hot"), nullptr);
  EXPECT_NE(cache.Lookup(0, "expensive"), nullptr);
}

TEST(AgCacheTest, OversizedAgIsNeverInserted) {
  AgCache cache({64});  // quota far below any frozen AG
  ASSERT_TRUE(cache.BeginFill(0, "big"));
  cache.EndFill(0, "big", MakeAg(1000), 1.0);
  EXPECT_EQ(cache.Lookup(0, "big"), nullptr);
  const AgCache::Counters c = cache.counters(0);
  EXPECT_EQ(c.inserts, 0u);
  EXPECT_EQ(c.bytes, 0u);
}

TEST(AgCacheTest, EvictedAgStaysValidForHolders) {
  const uint64_t one = MakeAg(64)->ag->FrozenByteSize();
  AgCache cache({one + one / 2});
  ASSERT_TRUE(cache.BeginFill(0, "a"));
  cache.EndFill(0, "a", MakeAg(64), 1.0);
  const auto held = cache.Lookup(0, "a");  // reader holds a reference
  ASSERT_TRUE(cache.BeginFill(0, "b"));
  cache.EndFill(0, "b", MakeAg(64), 1.0);  // evicts "a"
  EXPECT_EQ(cache.Lookup(0, "a"), nullptr);
  // The held AG is still fully readable: shared ownership outlives the
  // cache entry.
  EXPECT_EQ(held->ag->TotalQueryEdgePairs(), 64u);
  EXPECT_TRUE(held->ag->IsFrozen());
}

}  // namespace
}  // namespace runtime
}  // namespace wireframe
