#ifndef WIREFRAME_NET_CLIENT_H_
#define WIREFRAME_NET_CLIENT_H_

#include <cstddef>
#include <functional>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"

namespace wireframe {
namespace net {

struct ClientOptions {
  /// Service class carried in HELLO; every query of the connection runs
  /// as this tenant (empty = server default).
  std::string service_class;
  int connect_timeout_ms = 10'000;
  /// Bound on each blocking read/write. Generous by default: a frame
  /// arrives only when the server has something to say, and a long
  /// query says nothing for a while.
  int io_timeout_ms = 600'000;
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// > 0 shrinks SO_RCVBUF before the handshake. The slow-reader tests
  /// use this: without it, loopback hides back-pressure inside a
  /// multi-megabyte kernel buffer.
  int recv_buffer_bytes = 0;
  /// Liveness: while waiting for frames, send a PING every
  /// `ping_interval_ms`; if NO frame at all (PONG included) arrives for
  /// `ping_timeout_ms`, the peer is declared unresponsive with a typed
  /// kConnectionReset — a half-dead server can no longer hold a client
  /// for the full io_timeout_ms. 0 disables pinging (the io_timeout_ms
  /// bound still applies).
  int ping_interval_ms = 5'000;
  int ping_timeout_ms = 15'000;
  /// > 0 bounds one WHOLE Run() call, wall-clock, returning a typed
  /// kTimedOut when exceeded. Liveness pings alone cannot provide this
  /// bound: a peer that lost our QUERY (e.g. the bytes vanished in
  /// transit) still answers every PING, so both sides idle happily
  /// forever — PONG proves the peer is alive, not that the query is
  /// progressing. 0 keeps Run unbounded (io_timeout_ms still bounds
  /// each read).
  int query_timeout_ms = 0;
  /// Optional deterministic fault plane (borrowed; see
  /// net/fault_injection.h) armed on the connection's socket BEFORE the
  /// handshake, so scheduled faults hit from the first HELLO byte.
  FaultInjector* fault_injector = nullptr;
};

/// A streamed query's result rows, kept as the ROW-BATCH frames they
/// arrived in: each decoded batch is moved in whole, so collecting a
/// result costs no per-row allocation and no copy past the decode. Rows
/// keep stream order across batch boundaries; Row(i) and iteration view
/// them as spans of width() node ids.
class RowTable {
 public:
  /// Forward iterator over the rows, in stream order.
  class Iterator {
   public:
    // A forward range whose rows are views, so for the pre-C++20
    // iterator traits (which want a true reference) it is an input one.
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = std::span<const NodeId>;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = std::span<const NodeId>;

    Iterator() = default;
    std::span<const NodeId> operator*() const {
      return {table_->batches_[batch_].data.data() + row_ * table_->width_,
              table_->width_};
    }
    Iterator& operator++() {
      if (++row_ == table_->batches_[batch_].rows()) {
        ++batch_;
        row_ = 0;
      }
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const Iterator& other) const {
      return batch_ == other.batch_ && row_ == other.row_;
    }

   private:
    friend class RowTable;
    Iterator(const RowTable* table, size_t batch)
        : table_(table), batch_(batch) {}

    const RowTable* table_ = nullptr;
    size_t batch_ = 0;
    size_t row_ = 0;
  };

  /// Node ids per row; 0 until the first batch arrives.
  uint32_t width() const { return width_; }
  size_t size() const { return rows_; }

  /// Row `i` in stream order (i < size()).
  std::span<const NodeId> Row(size_t i) const;

  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, batches_.size()); }

  /// The rows as one vector each — for comparisons against
  /// CollectingSink::rows(). Allocates per row; not for hot paths.
  std::vector<std::vector<NodeId>> ToVectors() const;

  /// Moves `batch` in. Rejects a batch whose width differs from the
  /// stream's; a batch without rows only fixes the width.
  Status Append(RowBatchFrame&& batch);

 private:
  uint32_t width_ = 0;
  size_t rows_ = 0;
  /// Non-empty batches, and the row count before each (for Row(i)).
  std::vector<RowBatchFrame> batches_;
  std::vector<size_t> first_row_;
};

/// One streamed query's results, collected.
struct QueryResult {
  RowTable rows;
  /// Terminal REPORT, with the AGGREGATE frame (if any) folded back into
  /// report.aggregate.
  runtime::QueryReport report;
};

/// Blocking client of net::SocketServer — used by tests, wf_bench, the
/// CI e2e driver, and `wf_shell --connect`. Not thread-safe; one query
/// in flight at a time (the protocol's rule, too).
class Client {
 public:
  /// Called on every ROW-BATCH as it is read off the wire, before the
  /// batch is moved into the result. Tests use it to pace reads (slow
  /// reader) or to fire a CANCEL mid-stream.
  using BatchHook = std::function<void(const RowBatchFrame& batch)>;

  /// Connects and completes the HELLO handshake.
  static Result<std::unique_ptr<Client>> Connect(
      const std::string& address, ClientOptions options = {});

  /// What the server granted in HELLO-ACK.
  const HelloAckFrame& hello() const { return hello_; }

  /// Runs one query to its REPORT. Protocol ERRORs and transport
  /// failures surface as the error status; query-level failures (parse,
  /// admission, timeout) come back as a successful Result whose
  /// report.status / report.outcome say what happened — mirroring
  /// RunBatch.
  Result<QueryResult> Run(const QueryFrame& query,
                          const BatchHook& hook = nullptr);
  Result<QueryResult> Run(const std::string& sparql,
                          const BatchHook& hook = nullptr) {
    QueryFrame query;
    query.sparql = sparql;
    return Run(query, hook);
  }

  /// Requests cancellation of the in-flight query (legal to call from a
  /// BatchHook: the socket is full-duplex). The query still terminates
  /// with a REPORT — outcome kCancelled if the cancel won the race.
  Status SendCancel();

  /// Explicit liveness probe: sends PING and blocks until the matching
  /// PONG (or a transport error). Legal between queries only.
  Status Ping();

  /// Asks the server for its load snapshot (queue depths, per-tenant
  /// load, overload flag). Legal between queries only.
  Result<StatusFrame> QueryStatus();

  /// Drain contract: sends GOODBYE, then reads until the server's
  /// GOODBYE — every frame the server queued before it arrives first.
  /// Closes the socket either way.
  Status Goodbye();

  /// Escape hatch for tests: the raw socket (e.g. Reset() simulates a
  /// client killed mid-stream).
  Socket& socket() { return sock_; }

 private:
  Client(Socket sock, ClientOptions options)
      : sock_(std::move(sock)), options_(std::move(options)) {}

  Status SendFrame(FrameType type, const std::string& payload);
  Result<Frame> ReadFrame();
  /// ReadFrame plus the ping-while-waiting liveness policy (see
  /// ClientOptions::ping_interval_ms).
  Result<Frame> ReadFrameWithLiveness();

  Socket sock_;
  ClientOptions options_;
  HelloAckFrame hello_;
};

}  // namespace net
}  // namespace wireframe

#endif  // WIREFRAME_NET_CLIENT_H_
