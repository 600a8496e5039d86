#ifndef WIREFRAME_NET_SERVER_H_
#define WIREFRAME_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"
#include "runtime/server.h"

namespace wireframe {
namespace net {

struct SocketServerOptions {
  /// Listen address: "HOST:PORT" (PORT 0 = kernel-assigned, read back
  /// with address()) or "unix:PATH".
  std::string listen = "127.0.0.1:0";
  int backlog = 64;
  /// Frames past this payload size are rejected before the payload is
  /// read; echoed to clients in HELLO-ACK.
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Rows per ROW-BATCH frame (clamped per query so one frame never
  /// exceeds half the send buffer — that keeps the back-pressure bound
  /// strict).
  uint32_t rows_per_batch = 1024;
  /// Per-connection send-buffer cap in encoded-frame bytes. When the
  /// result stream fills it, the emitting sink suspends in short
  /// cancel/deadline-probing waits: the slow reader throttles its own
  /// query, never another tenant's (each query's driver thread advances
  /// it independently of the shared pool).
  uint64_t send_buffer_bytes = 1u << 20;
  /// Kernel-level SO_SNDBUF for accepted sockets; 0 keeps the kernel
  /// default. The app-level send_buffer_bytes bound only engages once
  /// the kernel buffer is full — on loopback the default is large
  /// enough to swallow a whole result stream, so tests (and deployments
  /// that want the back-pressure contract to bite at a known size) pin
  /// this to a small value.
  int kernel_send_buffer_bytes = 0;
  /// Bound on COMPLETING a frame whose first byte arrived (header +
  /// payload). A peer that starts a frame and stalls mid-way is cut
  /// here — this is a transfer bound, not the idle bound below.
  int read_timeout_ms = 30'000;
  /// Idle bound between frames of an established session. Clients ping
  /// every ClientOptions::ping_interval_ms (5 s default) whenever they
  /// are waiting, so 15 s ≈ three missed pings: a HELLO'd-then-silent
  /// connection is reaped in seconds, not minutes, and a live-but-idle
  /// client stays connected indefinitely just by pinging.
  int idle_timeout_ms = 15'000;
  /// Bound on one blocked write. A client that stopped reading past the
  /// send buffer AND this long is declared dead: the connection aborts
  /// and its in-flight query is cancelled.
  int write_timeout_ms = 30'000;
  /// Wait for the HELLO after accept (tighter than read_timeout_ms so
  /// idle port scanners do not pin connection slots).
  int hello_timeout_ms = 10'000;
};

struct Connection;  // net/stream_sink.h

/// The socket front-end of runtime::Server: an acceptor thread plus one
/// reader and one writer thread per connection, speaking the net/wire.h
/// frame protocol. One connection = one session stream — HELLO picks the
/// service class, then queries run strictly one at a time per
/// connection (concurrency comes from connections; the runtime
/// interleaves all of them at morsel granularity).
///
/// Robustness contract:
///  - malformed or oversized frames get a typed ERROR, then the
///    connection closes (the byte stream is no longer trustworthy);
///  - client disconnect mid-stream cancels the in-flight query
///    immediately and never disturbs other connections;
///  - Stop() drains gracefully: stop accepting, cancel in-flight
///    queries, flush every queued frame, then GOODBYE — GOODBYE is
///    always the last frame of a connection.
///
/// CANCEL is decided by when the reader thread reads it. Read while the
/// query is still running (it polls the socket every few milliseconds
/// while a query is in flight), it stops both the engine and the result
/// stream: the client gets a prefix of the rows — any frame not yet
/// queued, the partial tail frame included, is dropped — and a REPORT
/// with outcome kCancelled. A CANCEL that races completion, still unread
/// when the query's session finishes, is read by the idle session loop
/// instead and ignored: the stream is whole and the REPORT says
/// kCompleted. Either way the connection stays open for the next query.
class SocketServer {
 public:
  /// `server` is borrowed and must outlive this object.
  SocketServer(runtime::Server* server, SocketServerOptions options = {});
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens, and starts the acceptor. address() is valid once
  /// this returned OK.
  Status Start();

  /// Graceful drain; idempotent, also run by the destructor.
  void Stop();

  /// The resolved listen address (actual port for TCP port 0).
  const SocketAddress& address() const { return address_; }

  /// Runtime stats with the network slice filled in: totals plus one
  /// ConnectionStats entry per live connection.
  runtime::RuntimeStats stats() const;

 private:
  void AcceptLoop();
  void ReaderLoop(const std::shared_ptr<Connection>& conn);
  void WriterLoop(const std::shared_ptr<Connection>& conn);
  /// One HELLO -> ... -> GOODBYE session; runs on the reader thread.
  void ServeSession(Connection& conn);
  /// Runs one QUERY end to end: submit, pump cancel/disconnect while it
  /// executes, then stream AGGREGATE/REPORT. False when the connection
  /// died and the session must end.
  bool ServeQuery(Connection& conn, const QueryFrame& query);
  /// Reads one complete frame (header + payload). Errors: kTimedOut
  /// (idle), kInvalidArgument/kParseError (malformed — reply then
  /// close), kIOError (disconnect), kCancelled (abort/drain).
  Result<Frame> ReadFrame(Connection& conn, int timeout_ms);
  /// Enqueues one frame behind everything already queued, waiting for
  /// buffer room. False when the connection aborted (frame dropped).
  bool PushFrame(Connection& conn, FrameType type,
                 const std::string& payload);
  /// Encoded STATUS payload: point-in-time queue depths, per-tenant
  /// load, and the overload flag.
  std::string EncodeStatusSnapshot() const;
  static void Abort(Connection& conn);

  runtime::Server* server_;
  const SocketServerOptions options_;
  SocketAddress address_;
  Socket listener_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> next_connection_id_{1};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> malformed_frames_{0};
  std::atomic<uint64_t> aborted_streams_{0};
  std::thread acceptor_;
  mutable std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  bool started_ = false;
};

}  // namespace net
}  // namespace wireframe

#endif  // WIREFRAME_NET_SERVER_H_
