#ifndef WIREFRAME_NET_CLIENT_H_
#define WIREFRAME_NET_CLIENT_H_

#include <functional>
#include <memory>
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

/// One streamed query's results, collected.
struct QueryResult {
  uint32_t width = 0;
  std::vector<std::vector<NodeId>> rows;
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
  /// rows are appended to the result. Tests use it to pace reads (slow
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
