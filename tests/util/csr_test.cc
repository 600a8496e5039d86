#include "util/csr.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace wireframe {
namespace {

TEST(CsrTest, EmptyBuild) {
  const Csr csr = Csr::Build({});
  EXPECT_EQ(csr.NumEntries(), 0u);
  EXPECT_TRUE(csr.Nodes().empty());
  EXPECT_TRUE(csr.Neighbors(7).empty());
  EXPECT_FALSE(csr.Contains(7, 8));
}

TEST(CsrTest, DefaultConstructedBehavesLikeEmpty) {
  const Csr csr;
  EXPECT_EQ(csr.NumEntries(), 0u);
  EXPECT_TRUE(csr.Neighbors(0).empty());
}

TEST(CsrTest, BuildSortsKeysAndSpans) {
  const Csr csr = Csr::Build({{5, 9}, {2, 4}, {5, 1}, {2, 8}, {9, 0}});
  ASSERT_EQ(csr.Nodes().size(), 3u);
  EXPECT_EQ(csr.Nodes()[0], 2u);
  EXPECT_EQ(csr.Nodes()[1], 5u);
  EXPECT_EQ(csr.Nodes()[2], 9u);
  const auto at5 = csr.Neighbors(5);
  ASSERT_EQ(at5.size(), 2u);
  EXPECT_EQ(at5[0], 1u);
  EXPECT_EQ(at5[1], 9u);
  EXPECT_EQ(csr.NumEntries(), 5u);
}

TEST(CsrTest, ContainsIsExact) {
  const Csr csr = Csr::Build({{1, 2}, {1, 4}, {3, 0}});
  EXPECT_TRUE(csr.Contains(1, 2));
  EXPECT_TRUE(csr.Contains(1, 4));
  EXPECT_TRUE(csr.Contains(3, 0));
  EXPECT_FALSE(csr.Contains(1, 3));
  EXPECT_FALSE(csr.Contains(2, 2));
  EXPECT_FALSE(csr.Contains(0, 0));
}

TEST(CsrTest, ForEachIsKeyMajorAscending) {
  const Csr csr = Csr::Build({{4, 7}, {0, 3}, {4, 1}, {0, 9}});
  std::vector<std::pair<NodeId, NodeId>> seen;
  csr.ForEach([&](NodeId k, NodeId v) { seen.emplace_back(k, v); });
  const std::vector<std::pair<NodeId, NodeId>> want = {
      {0, 3}, {0, 9}, {4, 1}, {4, 7}};
  EXPECT_EQ(seen, want);
}

// Keys spread over a huge id space skip the dense direct index (max_key
// >> 8 * distinct + 1024) and take the hashed key index; it must answer
// identically to the dense path.
TEST(CsrTest, SparseKeySpaceUsesHashedIndex) {
  const Csr csr = Csr::Build(
      {{5, 1}, {5, 7}, {70000, 2}, {2000000, 9}, {2000000, 3}});
  ASSERT_EQ(csr.Nodes().size(), 3u);
  EXPECT_EQ(csr.NumEntries(), 5u);
  // Present keys.
  const auto at5 = csr.Neighbors(5);
  ASSERT_EQ(at5.size(), 2u);
  EXPECT_EQ(at5[0], 1u);
  EXPECT_EQ(at5[1], 7u);
  EXPECT_EQ(csr.Neighbors(70000).size(), 1u);
  const auto top = csr.Neighbors(2000000);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 3u);
  EXPECT_EQ(top[1], 9u);
  // Absent below, between, and above the key range.
  EXPECT_TRUE(csr.Neighbors(0).empty());
  EXPECT_TRUE(csr.Neighbors(6).empty());
  EXPECT_TRUE(csr.Neighbors(100000).empty());
  EXPECT_TRUE(csr.Neighbors(3000000).empty());
  EXPECT_TRUE(csr.Contains(5, 7));
  EXPECT_FALSE(csr.Contains(5, 2));
  EXPECT_FALSE(csr.Contains(6, 7));
  EXPECT_FALSE(csr.Contains(3000000, 9));
}

TEST(CsrTest, BuildFromSortedMatchesBuild) {
  const std::vector<std::pair<NodeId, NodeId>> sorted = {
      {1, 2}, {1, 5}, {4, 0}, {9, 9}};
  const Csr from_sorted =
      Csr::BuildFromSorted(sorted.size(), [&](size_t i) { return sorted[i]; });
  const Csr from_unsorted = Csr::Build({{9, 9}, {1, 5}, {4, 0}, {1, 2}});
  ASSERT_EQ(from_sorted.NumEntries(), from_unsorted.NumEntries());
  std::vector<std::pair<NodeId, NodeId>> a, b;
  from_sorted.ForEach([&](NodeId k, NodeId v) { a.emplace_back(k, v); });
  from_unsorted.ForEach([&](NodeId k, NodeId v) { b.emplace_back(k, v); });
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, sorted);
}

TEST(CsrTest, NeighborsAtMatchesNeighbors) {
  const Csr csr = Csr::Build({{10, 1}, {20, 2}, {20, 3}});
  ASSERT_EQ(csr.Nodes().size(), 2u);
  EXPECT_EQ(csr.NeighborsAt(0).size(), csr.Neighbors(10).size());
  EXPECT_EQ(csr.NeighborsAt(1).size(), csr.Neighbors(20).size());
}

using Pairs = std::vector<std::pair<NodeId, NodeId>>;
using Model = std::map<NodeId, std::vector<NodeId>>;

// Bytes of nodes, offsets and entries: what a built Csr holds besides
// its key lookup table.
uint64_t PlainBytes(const Csr& csr) {
  return (2 * csr.Nodes().size() + 1 + csr.NumEntries()) * sizeof(uint32_t);
}

// Build's dense-eligibility rule: max_key + 1 <= 8 * distinct + 1024.
bool DenseEligible(const Model& model) {
  return !model.empty() &&
         static_cast<uint64_t>(model.rbegin()->first) + 1 <=
             8 * model.size() + 1024;
}

// The key lookup table's bytes the Csr must hold: the direct index
// (max_key + 2 offsets) or the hashed index (bit_ceil(2 * keys) slots).
uint64_t IndexBytes(const Model& model) {
  if (model.empty()) return 0;
  if (DenseEligible(model)) {
    return (static_cast<uint64_t>(model.rbegin()->first) + 2) *
           sizeof(uint32_t);
  }
  return std::bit_ceil(2 * model.size()) * sizeof(uint32_t);
}

void ExpectSameCsr(const Csr& a, const Csr& b) {
  ASSERT_TRUE(std::equal(a.Nodes().begin(), a.Nodes().end(),
                         b.Nodes().begin(), b.Nodes().end()));
  ASSERT_TRUE(std::equal(a.Entries().begin(), a.Entries().end(),
                         b.Entries().begin(), b.Entries().end()));
  for (size_t i = 0; i < a.Nodes().size(); ++i) {
    ASSERT_EQ(a.RangeAt(i).begin, b.RangeAt(i).begin);
    ASSERT_EQ(a.RangeAt(i).end, b.RangeAt(i).end);
  }
  EXPECT_EQ(a.ByteSize(), b.ByteSize());
}

// Checks every lookup of `csr` against `model`, at each key and at
// `absent` keys, which the model must not hold.
void ExpectMatchesModel(const Csr& csr, const Model& model,
                        const std::vector<NodeId>& absent) {
  ASSERT_EQ(csr.Nodes().size(), model.size());
  std::vector<NodeId> keys, values;
  std::vector<uint8_t> want;
  for (const auto& [key, neighbors] : model) {
    const Csr::Range r = csr.RangeOf(key);
    ASSERT_FALSE(r.empty()) << key;
    const std::span<const NodeId> span = csr.Neighbors(key);
    ASSERT_TRUE(std::equal(span.begin(), span.end(), neighbors.begin(),
                           neighbors.end()))
        << key;
    ASSERT_EQ(span.data(), csr.Slice(r).data()) << key;
    for (const NodeId v : neighbors) {
      ASSERT_TRUE(csr.Contains(key, v)) << key << " " << v;
      keys.push_back(key);
      values.push_back(v);
      want.push_back(1);
    }
    const NodeId miss = neighbors.back() + 1;
    ASSERT_FALSE(csr.Contains(key, miss)) << key;
    keys.push_back(key);
    values.push_back(miss);
    want.push_back(0);
  }
  for (const NodeId key : absent) {
    ASSERT_EQ(model.count(key), 0u) << key;
    ASSERT_TRUE(csr.RangeOf(key).empty()) << key;
    ASSERT_TRUE(csr.Neighbors(key).empty()) << key;
    ASSERT_FALSE(csr.Contains(key, 0)) << key;
    keys.push_back(key);
    values.push_back(0);
    want.push_back(0);
  }
  // Key-major batch (runs of equal keys), then the same probes reversed.
  std::vector<uint8_t> hits(keys.size(), 2);
  csr.ContainsMany(keys, values, hits.data());
  ASSERT_EQ(hits, want);
  std::reverse(keys.begin(), keys.end());
  std::reverse(values.begin(), values.end());
  std::reverse(want.begin(), want.end());
  std::fill(hits.begin(), hits.end(), 2);
  csr.ContainsMany(keys, values, hits.data());
  ASSERT_EQ(hits, want);
}

// Both key lookup forms against a std::map model: compact key sets take
// the direct index, sparse ones (random ids over the whole NodeId range,
// keys in strides of 2^20 that a weak hash would pile into few slots)
// the hashed index. Sizes straddle every power of two up to 2^16 keys,
// where the hashed index's capacity doubles.
TEST(CsrTest, LookupsMatchModelForDenseAndSparseKeySets) {
  std::vector<size_t> sizes = {0, 1};
  for (size_t k = 1; k <= 16; ++k) {
    const size_t p = size_t{1} << k;
    sizes.insert(sizes.end(), {p - 1, p, p + 1});
  }
  Rng rng(19);
  enum Layout { kCompact, kSpread, kStride };
  for (const Layout layout : {kCompact, kSpread, kStride}) {
    for (const size_t n : sizes) {
      // 2^12 keys in strides of 2^20 already reach the top of the id
      // space.
      if (layout == kStride && n > 4096) continue;
      SCOPED_TRACE(testing::Message() << "layout " << layout << " n " << n);
      std::set<NodeId> key_set;
      if (layout == kCompact) {
        // Ids below 4n: dense-eligible at every size.
        if (n > 0) key_set.insert(0);
        while (key_set.size() < n) {
          key_set.insert(static_cast<NodeId>(rng.Uniform(4 * n)));
        }
      } else if (layout == kSpread) {
        if (n > 0) key_set.insert(kInvalidNode - 1);
        if (n > 1) key_set.insert(0);
        while (key_set.size() < n) {
          key_set.insert(static_cast<NodeId>(rng.Uniform(kInvalidNode)));
        }
      } else {
        for (NodeId i = 0; i < n; ++i) key_set.insert(i << 20);
      }
      Model model;
      Pairs pairs;
      for (const NodeId key : key_set) {
        std::vector<NodeId>& neighbors = model[key];
        NodeId v = static_cast<NodeId>(rng.Uniform(4));
        for (size_t d = 1 + rng.Uniform(3); d > 0; --d) {
          neighbors.push_back(v);
          pairs.emplace_back(key, v);
          v += 1 + static_cast<NodeId>(rng.Uniform(3));
        }
      }
      // Absent probes below, between and above the keys, plus random ids.
      std::vector<NodeId> absent;
      for (const NodeId probe :
           {NodeId{0}, NodeId{1}, kInvalidNode - 1, kInvalidNode}) {
        if (model.count(probe) == 0) absent.push_back(probe);
      }
      for (const NodeId key : key_set) {
        if (key > 0 && model.count(key - 1) == 0) absent.push_back(key - 1);
        if (key + 1 < kInvalidNode && model.count(key + 1) == 0) {
          absent.push_back(key + 1);
        }
      }
      for (size_t i = 0; i < 64; ++i) {
        const NodeId probe = static_cast<NodeId>(rng.Next());
        if (model.count(probe) == 0) absent.push_back(probe);
      }

      const Csr built = Csr::Build(pairs);
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(built, model, absent));
      if (layout == kCompact && n > 0) {
        ASSERT_TRUE(DenseEligible(model));
      }
      if (layout == kSpread && n > 1) {
        ASSERT_FALSE(DenseEligible(model));
      }
      EXPECT_EQ(built.ByteSize(), PlainBytes(built) + IndexBytes(model));

      const Csr from_sorted = Csr::BuildFromSorted(
          pairs.size(), [&](size_t i) { return pairs[i]; });
      ASSERT_NO_FATAL_FAILURE(ExpectSameCsr(from_sorted, built));
      ASSERT_NO_FATAL_FAILURE(
          ExpectSameCsr(built.Filtered([](uint32_t) { return true; }), built));

      // Keeping every other entry equals Build over those pairs, whose
      // key set (and so its lookup form) may differ.
      Pairs kept;
      for (size_t i = 0; i < pairs.size(); i += 2) kept.push_back(pairs[i]);
      ASSERT_NO_FATAL_FAILURE(ExpectSameCsr(
          built.Filtered([](uint32_t k) { return k % 2 == 0; }),
          Csr::Build(kept)));
    }
  }
}

// The hashed index costs exactly 4 bytes per slot and the direct index
// is unchanged by it: ByteSize() is what the AG cache charges.
TEST(CsrTest, ByteSizeCountsTheKeyIndex) {
  // Three sparse keys: bit_ceil(2 * 3) = 8 slots.
  const Csr sparse =
      Csr::Build({{5, 1}, {5, 7}, {70000, 2}, {2000000, 9}, {2000000, 3}});
  EXPECT_EQ(sparse.ByteSize(), PlainBytes(sparse) + 8 * sizeof(uint32_t));
  // Keys below 1024 stay dense: one offset per id in [0, max_key + 1].
  const Csr dense = Csr::Build({{5, 1}, {5, 7}, {700, 2}, {900, 9}});
  EXPECT_EQ(dense.ByteSize(), PlainBytes(dense) + 902 * sizeof(uint32_t));
  // No keys, no table: just the one offset.
  EXPECT_EQ(Csr::Build({}).ByteSize(), sizeof(uint32_t));
}

}  // namespace
}  // namespace wireframe
