#ifndef WIREFRAME_EXEC_SINK_H_
#define WIREFRAME_EXEC_SINK_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "util/common.h"
#include "util/hash.h"

namespace wireframe {

/// Consumer of embedding tuples. Engines hand over each embedding as the
/// full variable binding (indexed by VarId), either one at a time (Emit)
/// or in row-major batches (EmitBatch); the sink decides whether to
/// count, collect, project, or stop early.
///
/// Batched delivery is the phase-2 hot path: the defactorizer writes
/// rows straight into a fixed-size batch and hands the whole batch over
/// in one virtual call, so per-row costs (a virtual call, a lock, a row
/// copy) are paid per batch instead. Sinks that can consume a batch
/// more cheaply than row by row override EmitBatch; all others inherit
/// the row loop and see exactly the rows, in exactly the order, that
/// per-row delivery would have given them.
class Sink {
 public:
  virtual ~Sink();

  /// Receives one embedding. Returning false asks the engine to stop
  /// (used by LIMIT-style consumers); engines then finish with OK status.
  virtual bool Emit(const std::vector<NodeId>& binding) = 0;

  /// Receives `n` embeddings of `width` columns each, stored row-major
  /// at `rows` (valid only for the call). Returning false asks the
  /// engine to stop, like Emit; a sink that declines mid-batch consumes
  /// the rows up to and including the one it declined on and drops the
  /// rest. The default calls Emit once per row and stops at the first
  /// decline.
  virtual bool EmitBatch(const NodeId* rows, size_t n, size_t width);

  /// Number of tuples accepted so far.
  virtual uint64_t count() const = 0;
};

/// Hands `n` rows to `sink` in one EmitBatch call and adds the rows it
/// consumed to *consumed: all `n` when it accepted the batch, else the
/// advance of its count() (at most `n`) — exact for every sink whose
/// count() counts consumed rows. Returns EmitBatch's answer.
bool DeliverBatch(Sink* sink, const NodeId* rows, size_t n, size_t width,
                  uint64_t* consumed);

/// Counts embeddings without storing them (the benches' default: the
/// paper measures "the time spent to retrieve all the result tuples").
class CountingSink : public Sink {
 public:
  bool Emit(const std::vector<NodeId>&) override {
    ++count_;
    return true;
  }
  bool EmitBatch(const NodeId*, size_t n, size_t) override {
    count_ += n;
    return true;
  }
  uint64_t count() const override { return count_; }

 private:
  uint64_t count_ = 0;
};

/// Counts up to a limit, then stops the engine. Used by the query miner's
/// non-emptiness probes (limit 1).
class LimitSink : public Sink {
 public:
  explicit LimitSink(uint64_t limit) : limit_(limit) {}
  bool Emit(const std::vector<NodeId>&) override {
    return ++count_ < limit_;
  }
  /// Consumes rows up to the one that reaches the limit (at least one,
  /// as Emit does), so count() matches per-row delivery exactly.
  bool EmitBatch(const NodeId*, size_t n, size_t) override {
    const uint64_t room = limit_ > count_ ? limit_ - count_ : 1;
    count_ += std::min<uint64_t>(n, room);
    return count_ < limit_;
  }
  uint64_t count() const override { return count_; }

 private:
  uint64_t limit_;
  uint64_t count_ = 0;
};

/// Stores full bindings (tests and small examples only).
class CollectingSink : public Sink {
 public:
  bool Emit(const std::vector<NodeId>& binding) override {
    rows_.push_back(binding);
    return true;
  }
  uint64_t count() const override { return rows_.size(); }
  const std::vector<std::vector<NodeId>>& rows() const { return rows_; }
  std::vector<std::vector<NodeId>>& rows() { return rows_; }

 private:
  std::vector<std::vector<NodeId>> rows_;
};

/// Projects each binding onto `projection` and forwards only distinct
/// projected tuples to the wrapped sink (SELECT DISTINCT ?a ?b semantics
/// when the projection drops variables).
class DistinctProjectingSink : public Sink {
 public:
  DistinctProjectingSink(std::vector<VarId> projection, Sink* inner)
      : projection_(std::move(projection)), inner_(inner) {}

  bool Emit(const std::vector<NodeId>& binding) override {
    projected_.clear();
    uint64_t h = 1469598103934665603ull;  // FNV offset basis
    for (VarId v : projection_) {
      projected_.push_back(binding[v]);
      h = Mix64(h ^ binding[v]);
    }
    if (!seen_.insert(h).second) return true;  // likely-duplicate: skip
    return inner_->Emit(projected_);
  }
  uint64_t count() const override { return inner_->count(); }

 private:
  std::vector<VarId> projection_;
  Sink* inner_;
  std::vector<NodeId> projected_;
  std::unordered_set<uint64_t, Hash64> seen_;
};

/// Forwards each binding with its columns permuted: out[v] =
/// in[mapping[v]]. The runtime's answer-graph cache executes queries in
/// canonical variable order (query/canonical.h) and uses this to hand
/// the request sink rows back in the submitted query's variable order
/// (`mapping[v]` = canonical position of variable v). A batch is
/// permuted into one reused scratch buffer and forwarded with a single
/// inner EmitBatch. The scratch is reused across calls under the same
/// no-concurrent-Emit contract every sink here relies on.
class RemapSink : public Sink {
 public:
  RemapSink(Sink* inner, std::vector<VarId> mapping)
      : inner_(inner),
        mapping_(std::move(mapping)),
        row_(mapping_.size(), kInvalidNode) {}

  bool Emit(const std::vector<NodeId>& binding) override {
    for (size_t v = 0; v < mapping_.size(); ++v) {
      row_[v] = binding[mapping_[v]];
    }
    return inner_->Emit(row_);
  }
  bool EmitBatch(const NodeId* rows, size_t n, size_t width) override {
    const size_t out_width = mapping_.size();
    batch_.resize(n * out_width);
    for (size_t r = 0; r < n; ++r) {
      const NodeId* in = rows + r * width;
      NodeId* out = batch_.data() + r * out_width;
      for (size_t v = 0; v < out_width; ++v) out[v] = in[mapping_[v]];
    }
    return inner_->EmitBatch(batch_.data(), n, out_width);
  }
  uint64_t count() const override { return inner_->count(); }

 private:
  Sink* inner_;
  std::vector<VarId> mapping_;
  std::vector<NodeId> row_;
  std::vector<NodeId> batch_;  // row-major, reused across EmitBatch calls
};

/// Caps the rows a run may hand to the request sink (the runtime's
/// per-query row budget). A row beyond the budget is refused (never
/// forwarded) and returning false asks the engine to stop — engines
/// treat a declining sink as a result, not an error, so a
/// budget-clamped run finishes with OK and the runtime reports
/// kBudgetExhausted from the `exhausted` flag. The flag is only
/// raised by an actual refusal: a result with exactly `budget` rows
/// completes naturally and reports kCompleted (telling the two apart
/// costs the engine producing rows past the budget — one row, or up to
/// one batch when it delivers batches).
class RowBudgetSink : public Sink {
 public:
  RowBudgetSink(Sink* inner, uint64_t budget)
      : inner_(inner), budget_(budget) {}

  bool Emit(const std::vector<NodeId>& binding) override {
    if (count_ >= budget_) {
      exhausted_ = true;
      return false;
    }
    const bool inner_wants_more = inner_->Emit(binding);
    ++count_;
    return inner_wants_more;
  }
  /// Same rule as Emit, batch-clamped: exactly the budget's worth of rows
  /// is delivered, and only rows beyond it mark the budget exhausted.
  bool EmitBatch(const NodeId* rows, size_t n, size_t width) override {
    const uint64_t room = budget_ - count_;
    const size_t take = static_cast<size_t>(std::min<uint64_t>(n, room));
    if (take < n) exhausted_ = true;
    const bool inner_wants_more =
        take == 0 || DeliverBatch(inner_, rows, take, width, &count_);
    return inner_wants_more && !exhausted_;
  }
  uint64_t count() const override { return count_; }
  bool exhausted() const { return exhausted_; }

 private:
  Sink* inner_;
  uint64_t budget_;
  uint64_t count_ = 0;
  bool exhausted_ = false;
};

/// Per-worker front for a shared sink during parallel enumeration.
///
/// Sinks are not thread-safe, so each worker emits into its own SinkShard,
/// and the shard reaches the shared inner sink only under the shared
/// mutex, once per batch: a worker that already produces batches (the
/// defactorizer) hands each one straight through EmitBatch; per-row
/// Emit calls (the bushy executor) are buffered row-major and drained
/// `batch` rows at a time, each drain one inner EmitBatch call. When the
/// inner sink declines (LIMIT-style consumers), the shard raises the
/// shared stop flag; other shards observe it on their next call and stop
/// producing, and rows still buffered or batched after the stop are
/// discarded, never handed to the inner sink. Each producer may thus
/// have made at most one batch of rows the sink never sees.
class SinkShard : public Sink {
 public:
  SinkShard(Sink* inner, std::mutex* mu, std::atomic<bool>* stop,
            size_t batch = 256)
      : inner_(inner), mu_(mu), stop_(stop), batch_(batch) {}

  bool Emit(const std::vector<NodeId>& binding) override {
    if (stop_->load(std::memory_order_relaxed)) return false;
    // Rows are buffered row-major in one flat vector (all bindings of a
    // query have the same width), so steady-state buffering is a memcpy
    // into reused capacity — no per-row allocation on the hot path.
    if (width_ == 0) {
      width_ = binding.size();
      buffer_.reserve(batch_ * width_);
    }
    buffer_.insert(buffer_.end(), binding.begin(), binding.end());
    if (++buffered_rows_ >= batch_) return Flush();
    return true;
  }

  /// Forwards the batch under one lock acquisition, after any rows
  /// buffered by Emit (so delivery order is call order).
  bool EmitBatch(const NodeId* rows, size_t n, size_t width) override {
    if (stop_->load(std::memory_order_relaxed)) return false;
    std::lock_guard<std::mutex> lock(*mu_);
    return DrainLocked() && ForwardLocked(rows, n, width);
  }

  /// Drains the buffer to the inner sink. Returns false if production
  /// should stop. Call once more after the parallel loop so the tail
  /// batch is not lost.
  bool Flush() {
    if (buffered_rows_ == 0) {
      return !stop_->load(std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> lock(*mu_);
    return DrainLocked();
  }

  /// Rows the inner sink consumed from this shard.
  uint64_t count() const override { return forwarded_; }

 private:
  /// Forwards buffered Emit rows, if any; requires *mu_.
  bool DrainLocked() {
    if (buffered_rows_ == 0) return !stop_->load(std::memory_order_relaxed);
    const bool more = ForwardLocked(buffer_.data(), buffered_rows_, width_);
    buffer_.clear();
    buffered_rows_ = 0;
    return more;
  }

  /// One inner EmitBatch; requires *mu_.
  bool ForwardLocked(const NodeId* rows, size_t n, size_t width) {
    if (stop_->load(std::memory_order_relaxed)) return false;
    if (DeliverBatch(inner_, rows, n, width, &forwarded_)) return true;
    stop_->store(true, std::memory_order_relaxed);
    return false;
  }

  Sink* inner_;
  std::mutex* mu_;
  std::atomic<bool>* stop_;
  size_t batch_;
  size_t width_ = 0;
  size_t buffered_rows_ = 0;
  std::vector<NodeId> buffer_;    // row-major, buffered_rows_ x width_
  uint64_t forwarded_ = 0;
};

}  // namespace wireframe

#endif  // WIREFRAME_EXEC_SINK_H_
