#include "exec/sink.h"

#include <atomic>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

namespace wireframe {
namespace {

TEST(SinkTest, CountingSinkCounts) {
  CountingSink sink;
  std::vector<NodeId> row = {1, 2, 3};
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(sink.Emit(row));
  EXPECT_EQ(sink.count(), 5u);
}

TEST(SinkTest, LimitSinkStopsAtLimit) {
  LimitSink sink(3);
  std::vector<NodeId> row = {1};
  EXPECT_TRUE(sink.Emit(row));
  EXPECT_TRUE(sink.Emit(row));
  EXPECT_FALSE(sink.Emit(row));  // third emit reaches the limit
  EXPECT_EQ(sink.count(), 3u);
}

TEST(SinkTest, LimitOneProbesExistence) {
  LimitSink sink(1);
  std::vector<NodeId> row = {9};
  EXPECT_FALSE(sink.Emit(row));
  EXPECT_EQ(sink.count(), 1u);
}

TEST(SinkTest, CollectingSinkStoresRows) {
  CollectingSink sink;
  sink.Emit({1, 2});
  sink.Emit({3, 4});
  ASSERT_EQ(sink.rows().size(), 2u);
  EXPECT_EQ(sink.rows()[1], (std::vector<NodeId>{3, 4}));
}

TEST(SinkTest, DistinctProjectingSinkDedups) {
  CollectingSink inner;
  DistinctProjectingSink sink({0, 2}, &inner);
  sink.Emit({1, 100, 2});
  sink.Emit({1, 200, 2});  // same projection (1, 2)
  sink.Emit({1, 100, 3});
  EXPECT_EQ(inner.count(), 2u);
  EXPECT_EQ(inner.rows()[0], (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(inner.rows()[1], (std::vector<NodeId>{1, 3}));
}

TEST(SinkTest, DistinctProjectingSinkOrderSensitive) {
  CollectingSink inner;
  DistinctProjectingSink sink({0, 1}, &inner);
  sink.Emit({1, 2});
  sink.Emit({2, 1});  // different tuple
  EXPECT_EQ(inner.count(), 2u);
}

TEST(SinkShardTest, BuffersUntilBatchThenDrainsInOrder) {
  CollectingSink inner;
  std::mutex mu;
  std::atomic<bool> stop{false};
  SinkShard shard(&inner, &mu, &stop, /*batch=*/3);
  EXPECT_TRUE(shard.Emit({1, 2}));
  EXPECT_TRUE(shard.Emit({3, 4}));
  EXPECT_EQ(inner.count(), 0u) << "nothing drains before the batch fills";
  EXPECT_TRUE(shard.Emit({5, 6}));
  EXPECT_EQ(inner.count(), 3u);
  EXPECT_EQ(inner.rows()[0], (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(inner.rows()[2], (std::vector<NodeId>{5, 6}));
  EXPECT_EQ(shard.count(), 3u);
}

TEST(SinkShardTest, TailFlushDeliversPartialBatch) {
  CollectingSink inner;
  std::mutex mu;
  std::atomic<bool> stop{false};
  SinkShard shard(&inner, &mu, &stop, /*batch=*/100);
  shard.Emit({7, 8, 9});
  shard.Emit({10, 11, 12});
  EXPECT_EQ(inner.count(), 0u);
  EXPECT_TRUE(shard.Flush());
  EXPECT_EQ(inner.count(), 2u);
  EXPECT_TRUE(shard.Flush()) << "empty re-flush is a no-op";
  EXPECT_EQ(inner.count(), 2u);
}

TEST(SinkShardTest, InnerDeclineRaisesSharedStopAndDiscardsRest) {
  LimitSink inner(2);
  std::mutex mu;
  std::atomic<bool> stop{false};
  SinkShard a(&inner, &mu, &stop, /*batch=*/4);
  for (NodeId i = 0; i < 4; ++i) a.Emit({i});
  EXPECT_TRUE(stop.load()) << "limit hit must raise the shared stop";
  EXPECT_EQ(inner.count(), 2u) << "no rows beyond the limit reach inner";

  // A sibling shard sees the stop immediately and buffers nothing more.
  SinkShard b(&inner, &mu, &stop, /*batch=*/4);
  EXPECT_FALSE(b.Emit({9}));
  b.Flush();
  EXPECT_EQ(inner.count(), 2u);
}

// --- Batched delivery (Sink::EmitBatch). ---

/// Rows 0..n-1 of `width` columns, row-major; row r is {r*10, r*10+1, ...}.
std::vector<NodeId> Rows(size_t n, size_t width) {
  std::vector<NodeId> rows(n * width);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < width; ++c) {
      rows[r * width + c] = static_cast<NodeId>(r * 10 + c);
    }
  }
  return rows;
}

/// A sink that inherits the default EmitBatch and declines at row
/// `decline_at` (1-based).
class DecliningSink : public Sink {
 public:
  explicit DecliningSink(uint64_t decline_at) : decline_at_(decline_at) {}
  bool Emit(const std::vector<NodeId>& binding) override {
    rows_.push_back(binding);
    return rows_.size() < decline_at_;
  }
  uint64_t count() const override { return rows_.size(); }
  const std::vector<std::vector<NodeId>>& rows() const { return rows_; }

 private:
  uint64_t decline_at_;
  std::vector<std::vector<NodeId>> rows_;
};

TEST(SinkBatchTest, DefaultLoopsEmitInOrderAndStopsAtDecline) {
  const std::vector<NodeId> rows = Rows(5, 2);
  CollectingSink all;
  EXPECT_TRUE(all.EmitBatch(rows.data(), 5, 2));
  ASSERT_EQ(all.rows().size(), 5u);
  EXPECT_EQ(all.rows()[3], (std::vector<NodeId>{30, 31}));

  DecliningSink declining(3);
  EXPECT_FALSE(declining.EmitBatch(rows.data(), 5, 2));
  ASSERT_EQ(declining.count(), 3u) << "rows after the decline are dropped";
  EXPECT_EQ(declining.rows()[2], (std::vector<NodeId>{20, 21}));
}

TEST(SinkBatchTest, CountingSinkCountsWholeBatches) {
  const std::vector<NodeId> rows = Rows(7, 3);
  CountingSink sink;
  EXPECT_TRUE(sink.EmitBatch(rows.data(), 7, 3));
  EXPECT_TRUE(sink.Emit({1, 2, 3}));
  EXPECT_TRUE(sink.EmitBatch(rows.data(), 0, 3));
  EXPECT_EQ(sink.count(), 8u);
}

TEST(SinkBatchTest, LimitSinkClampsSoCountMatchesPerRow) {
  const std::vector<NodeId> rows = Rows(10, 1);
  LimitSink sink(5);
  EXPECT_TRUE(sink.EmitBatch(rows.data(), 3, 1));
  EXPECT_EQ(sink.count(), 3u);
  EXPECT_FALSE(sink.EmitBatch(rows.data(), 10, 1));
  EXPECT_EQ(sink.count(), 5u) << "consumes up to the limit, no further";

  // A batch that ends exactly on the limit declines, like the Emit that
  // reaches it.
  LimitSink exact(4);
  EXPECT_FALSE(exact.EmitBatch(rows.data(), 4, 1));
  EXPECT_EQ(exact.count(), 4u);

  LimitSink probe(1);
  EXPECT_FALSE(probe.EmitBatch(rows.data(), 10, 1));
  EXPECT_EQ(probe.count(), 1u);
}

TEST(SinkBatchTest, RemapSinkPermutesColumnsLikeEmit) {
  const std::vector<NodeId> rows = Rows(4, 3);
  const std::vector<VarId> mapping = {2, 0, 1};
  CollectingSink per_row;
  RemapSink a(&per_row, mapping);
  for (size_t r = 0; r < 4; ++r) {
    a.Emit(std::vector<NodeId>(rows.begin() + r * 3,
                               rows.begin() + (r + 1) * 3));
  }
  CollectingSink batched;
  RemapSink b(&batched, mapping);
  EXPECT_TRUE(b.EmitBatch(rows.data(), 4, 3));
  EXPECT_EQ(batched.rows(), per_row.rows());
  EXPECT_EQ(batched.rows()[1], (std::vector<NodeId>{12, 10, 11}));
  EXPECT_EQ(b.count(), 4u);
}

TEST(SinkBatchTest, RowBudgetExactBudgetCompletes) {
  const std::vector<NodeId> rows = Rows(6, 2);
  CollectingSink inner;
  RowBudgetSink sink(&inner, 6);
  EXPECT_TRUE(sink.EmitBatch(rows.data(), 4, 2));
  EXPECT_TRUE(sink.EmitBatch(rows.data() + 8, 2, 2));
  EXPECT_FALSE(sink.exhausted()) << "exactly the budget is not exhaustion";
  EXPECT_EQ(sink.count(), 6u);
  EXPECT_EQ(inner.count(), 6u);
}

TEST(SinkBatchTest, RowBudgetOneOverDeliversExactlyTheBudget) {
  const std::vector<NodeId> rows = Rows(7, 2);
  CollectingSink inner;
  RowBudgetSink sink(&inner, 6);
  EXPECT_FALSE(sink.EmitBatch(rows.data(), 7, 2));
  EXPECT_TRUE(sink.exhausted());
  EXPECT_EQ(sink.count(), 6u);
  ASSERT_EQ(inner.count(), 6u);
  EXPECT_EQ(inner.rows()[5], (std::vector<NodeId>{50, 51}));

  // Same rows split so the surplus row arrives alone.
  CollectingSink inner2;
  RowBudgetSink split(&inner2, 6);
  EXPECT_TRUE(split.EmitBatch(rows.data(), 6, 2));
  EXPECT_FALSE(split.EmitBatch(rows.data() + 12, 1, 2));
  EXPECT_TRUE(split.exhausted());
  EXPECT_EQ(inner2.count(), 6u);
}

TEST(SinkBatchTest, RowBudgetPassesInnerDeclineThrough) {
  const std::vector<NodeId> rows = Rows(5, 1);
  LimitSink inner(2);
  RowBudgetSink sink(&inner, 100);
  EXPECT_FALSE(sink.EmitBatch(rows.data(), 5, 1));
  EXPECT_FALSE(sink.exhausted()) << "the inner sink stopped, not the budget";
  EXPECT_EQ(sink.count(), 2u);
}

TEST(SinkBatchTest, DeliverBatchCountsConsumedRows) {
  const std::vector<NodeId> rows = Rows(5, 1);
  uint64_t consumed = 0;
  CountingSink all;
  EXPECT_TRUE(DeliverBatch(&all, rows.data(), 5, 1, &consumed));
  EXPECT_EQ(consumed, 5u);
  LimitSink limit(2);
  EXPECT_FALSE(DeliverBatch(&limit, rows.data(), 5, 1, &consumed));
  EXPECT_EQ(consumed, 7u) << "a declined batch adds only what was taken";
}

TEST(SinkShardTest, EmitBatchForwardsInOrderAfterBufferedRows) {
  CollectingSink inner;
  std::mutex mu;
  std::atomic<bool> stop{false};
  SinkShard shard(&inner, &mu, &stop, /*batch=*/10);
  EXPECT_TRUE(shard.Emit({1, 2}));
  const std::vector<NodeId> rows = {3, 4, 5, 6};
  EXPECT_TRUE(shard.EmitBatch(rows.data(), 2, 2));
  ASSERT_EQ(inner.count(), 3u) << "buffered row first, then the batch";
  EXPECT_EQ(inner.rows()[0], (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(inner.rows()[2], (std::vector<NodeId>{5, 6}));
  EXPECT_EQ(shard.count(), 3u);
}

TEST(SinkShardTest, MidBatchDeclineRaisesSharedStopAndDiscardsRest) {
  LimitSink inner(3);
  std::mutex mu;
  std::atomic<bool> stop{false};
  SinkShard a(&inner, &mu, &stop);
  const std::vector<NodeId> rows = Rows(8, 2);
  EXPECT_FALSE(a.EmitBatch(rows.data(), 8, 2));
  EXPECT_TRUE(stop.load()) << "the decline must raise the shared stop";
  EXPECT_EQ(inner.count(), 3u) << "no rows beyond the decline reach inner";
  EXPECT_EQ(a.count(), 3u);

  SinkShard b(&inner, &mu, &stop);
  EXPECT_FALSE(b.EmitBatch(rows.data(), 8, 2));
  EXPECT_EQ(inner.count(), 3u);
  EXPECT_EQ(b.count(), 0u);
}

}  // namespace
}  // namespace wireframe
