#ifndef WIREFRAME_NET_STREAM_SINK_H_
#define WIREFRAME_NET_STREAM_SINK_H_

// Internals of the socket front-end (net/server.h): the per-connection
// state and the per-query result sink that turns rows into ROW-BATCH
// frames. Not part of the public API; the server and its tests include
// it.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>

#include "exec/sink.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "runtime/query_runtime.h"
#include "util/interrupt.h"
#include "util/status.h"

namespace wireframe {
namespace net {

/// Wait slice of a suspended sink or a control-frame push: short enough
/// that cancel/deadline probes stay responsive while the send buffer is
/// full.
inline constexpr auto kPushSlice = std::chrono::milliseconds(2);

/// One live connection. The reader thread owns the protocol state
/// machine; the writer thread drains the send queue; engine pool threads
/// reach the queue through the query's StreamSink. Queue state and stats
/// are guarded by `mu`; `abort` is the one-way kill switch every
/// blocking wait polls.
struct Connection {
  uint64_t id = 0;
  Socket sock;
  std::string service_class;  // from HELLO, verbatim
  std::atomic<bool> abort{false};
  /// Client sent GOODBYE mid-query (the reader finishes the query's
  /// REPORT first, then answers GOODBYE — drain ordering contract).
  bool client_goodbye = false;

  std::mutex mu;
  std::condition_variable can_push;
  std::condition_variable can_pop;
  std::deque<std::string> queue;  // encoded frames, FIFO
  uint64_t queue_bytes = 0;
  /// No more pushes; the writer exits once the queue is empty, which is
  /// what makes GOODBYE the last frame out.
  bool closing = false;
  runtime::ConnectionStats stats;

  std::thread reader;
  std::thread writer;
  std::atomic<bool> finished{false};
};

/// The per-query result sink: batches rows into ROW-BATCH frames and
/// pushes them into the connection's bounded send queue. When the queue
/// is full it suspends in kPushSlice waits, probing the same
/// cancel/deadline pair the engine's own loops probe (InterruptProbe) —
/// so a slow reader throttles exactly its own query: the engine blocks
/// inside Emit/EmitBatch on this query's driver thread, while every
/// other query keeps its own driver and the pool's morsel interleaving.
///
/// Frames are cut every `batch_rows` rows of the stream, however the
/// rows arrive: a row at a time (Emit) or in engine batches (EmitBatch,
/// appended in bulk) yield byte-identical frames. Rows are copied once,
/// from the engine's buffer straight into the open frame; the frame and
/// payload headers are filled in when the frame is cut.
class StreamSink : public Sink {
 public:
  StreamSink(const SocketServerOptions& options, Connection* conn,
             double timeout_seconds)
      : options_(options), conn_(conn),
        timeout_seconds_(timeout_seconds) {}

  bool Emit(const std::vector<NodeId>& binding) override {
    return EmitBatch(binding.data(), 1, binding.size());
  }
  bool EmitBatch(const NodeId* rows, size_t n, size_t width) override;

  uint64_t count() const override { return emitted_; }

  /// Flushes the partial tail batch. Call after the session finished
  /// (no Emit can be in flight).
  void Finish() {
    if (stream_status_.ok() && frame_rows_ > 0) FlushBatch();
  }

  /// Reader thread: unstick a suspended Emit (CANCEL frame, GOODBYE,
  /// server drain). Pairs with QuerySession::Cancel.
  void RequestCancel() { cancel_.store(true, std::memory_order_relaxed); }

  /// OK while the stream is healthy; kTimedOut / kCancelled when a
  /// suspension probe fired; kIOError when the connection died under
  /// the stream. The server folds this into the REPORT outcome (the
  /// engine itself sees a declined sink and reports a clean stop).
  const Status& stream_status() const { return stream_status_; }

 private:
  /// First row: fixes the row width, the rows per frame, and the
  /// suspension budget.
  void Start(size_t width);
  /// Seals the open frame and pushes it.
  bool FlushBatch();
  /// Back-pressured enqueue; on refusal records why in stream_status_.
  bool Push(std::string frame);

  const SocketServerOptions& options_;
  Connection* conn_;
  const double timeout_seconds_;
  uint32_t width_ = 0;
  uint64_t batch_rows_ = 1;
  /// The open ROW-BATCH frame: room for the frame and payload headers,
  /// then `frame_rows_` rows.
  std::string frame_;
  uint64_t frame_rows_ = 0;
  uint64_t emitted_ = 0;
  std::atomic<bool> cancel_{false};
  InterruptProbe probe_;
  Status stream_status_;
};

}  // namespace net
}  // namespace wireframe

#endif  // WIREFRAME_NET_STREAM_SINK_H_
