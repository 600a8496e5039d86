#include "net/stream_sink.h"

#include <algorithm>
#include <utility>

namespace wireframe {
namespace net {

void StreamSink::Start(size_t width) {
  width_ = static_cast<uint32_t>(width);
  // Set the width immediately: batch_.rows() divides by it, and the
  // flush-at-batch_rows_ check depends on a real row count.
  batch_.width = width_;
  const uint64_t row_bytes = std::max<uint64_t>(1, width_ * sizeof(NodeId));
  // One encoded frame must fit in half the send buffer (strict
  // high-water bound) and under the frame cap.
  const uint64_t half = options_.send_buffer_bytes / 2;
  const uint64_t half_buffer = half > 16 ? half - 16 : 1;
  const uint64_t frame_cap =
      options_.max_frame_bytes > 8 ? options_.max_frame_bytes - 8 : 1;
  uint64_t rows = options_.rows_per_batch;
  rows = std::min(rows, half_buffer / row_bytes);
  rows = std::min(rows, frame_cap / row_bytes);
  batch_rows_ = std::max<uint64_t>(1, rows);
  // The stream budget starts at the first row, not at admission: a
  // suspended stream still times out, just measured from here.
  probe_ = InterruptProbe(timeout_seconds_ > 0
                              ? Deadline::AfterSeconds(timeout_seconds_)
                              : Deadline(),
                          &cancel_);
}

bool StreamSink::EmitBatch(const NodeId* rows, size_t n, size_t width) {
  if (!stream_status_.ok()) return false;  // sticky after any failure
  if (width_ == 0) Start(width);
  while (n > 0) {
    // Fill the open frame up to its row quota, then cut it.
    const size_t take = static_cast<size_t>(
        std::min<uint64_t>(n, batch_rows_ - batch_.rows()));
    batch_.data.insert(batch_.data.end(), rows, rows + take * width);
    emitted_ += take;
    rows += take * width;
    n -= take;
    if (batch_.rows() >= batch_rows_ && !FlushBatch()) return false;
  }
  return true;
}

bool StreamSink::FlushBatch() {
  batch_.width = width_;
  std::string frame;
  AppendFrame(FrameType::kRowBatch, EncodeRowBatch(batch_), &frame);
  batch_.data.clear();
  return Push(std::move(frame));
}

bool StreamSink::Push(std::string frame) {
  std::unique_lock<std::mutex> lock(conn_->mu);
  bool stalled = false;
  for (;;) {
    if (conn_->abort.load(std::memory_order_relaxed)) {
      stream_status_ = Status::IOError("connection aborted mid-stream");
      return false;
    }
    if (conn_->closing) {
      stream_status_ = Status::Cancelled("connection closing");
      return false;
    }
    Status probed =
        probe_.CheckNow("result stream suspended past the query budget");
    if (!probed.ok()) {
      stream_status_ = probed;
      return false;
    }
    if (conn_->queue.empty() ||
        conn_->queue_bytes + frame.size() <= options_.send_buffer_bytes) {
      break;
    }
    if (!stalled) {
      stalled = true;
      ++conn_->stats.send_stalls;
    }
    conn_->can_push.wait_for(lock, kPushSlice);
  }
  conn_->queue_bytes += frame.size();
  conn_->stats.buffer_bytes = conn_->queue_bytes;
  conn_->stats.buffer_high_water =
      std::max(conn_->stats.buffer_high_water, conn_->queue_bytes);
  conn_->queue.push_back(std::move(frame));
  conn_->can_pop.notify_one();
  return true;
}

}  // namespace net
}  // namespace wireframe
