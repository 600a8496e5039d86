#include "net/stream_sink.h"

#include <algorithm>
#include <utility>

namespace wireframe {
namespace net {

void StreamSink::Start(size_t width) {
  width_ = static_cast<uint32_t>(width);
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
  if (width_ == 0) {
    // Rows that bind no variable carry no bytes, and ROW-BATCH cannot
    // encode them (width 0 is malformed): they are counted, not sent.
    emitted_ += n;
    return true;
  }
  const size_t row_bytes = width * sizeof(NodeId);
  while (n > 0) {
    if (frame_rows_ == 0) {
      // Open a frame sized for its full quota, so appends never
      // reallocate; the headers are written over the room at the front
      // when the frame is cut.
      frame_.reserve(kFrameHeaderBytes + kRowBatchHeaderBytes +
                     batch_rows_ * row_bytes);
      frame_.assign(kFrameHeaderBytes + kRowBatchHeaderBytes, '\0');
    }
    // Fill the open frame up to its row quota, then cut it.
    const size_t take = static_cast<size_t>(
        std::min<uint64_t>(n, batch_rows_ - frame_rows_));
    frame_.append(reinterpret_cast<const char*>(rows), take * row_bytes);
    frame_rows_ += take;
    emitted_ += take;
    rows += take * width;
    n -= take;
    if (frame_rows_ >= batch_rows_ && !FlushBatch()) return false;
  }
  return true;
}

bool StreamSink::FlushBatch() {
  EncodeRowBatchHeader(width_, static_cast<uint32_t>(frame_rows_),
                       frame_.data() + kFrameHeaderBytes);
  SealFrame(FrameType::kRowBatch, &frame_);
  frame_rows_ = 0;
  return Push(std::exchange(frame_, std::string()));
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
