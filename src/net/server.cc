#include "net/server.h"

#include <algorithm>
#include <utility>

#include "net/stream_sink.h"

namespace wireframe {
namespace net {

namespace {

/// Poll cadence of a reader thread while a query is in flight: how fast
/// CANCEL frames, disconnects, and server drains are noticed.
constexpr int kPumpSliceMs = 10;
/// Poll cadence of an idle reader (between queries) and the acceptor.
constexpr int kIdleSliceMs = 50;

bool IsMalformed(const Status& status) {
  return status.IsInvalidArgument() || status.IsParseError() ||
         status.IsFrameCorrupt();
}

}  // namespace

SocketServer::SocketServer(runtime::Server* server,
                           SocketServerOptions options)
    : server_(server), options_(std::move(options)) {}

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Start() {
  WF_ASSIGN_OR_RETURN(address_, SocketAddress::Parse(options_.listen));
  WF_ASSIGN_OR_RETURN(listener_,
                      Socket::Listen(address_, options_.backlog));
  if (!address_.is_unix && address_.port == 0) {
    WF_ASSIGN_OR_RETURN(address_.port, listener_.BoundPort());
  }
  started_ = true;
  acceptor_ = std::thread(&SocketServer::AcceptLoop, this);
  return Status::OK();
}

void SocketServer::Stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_relaxed);
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Close();
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  // Readers notice stopping_ within one poll slice, cancel their
  // in-flight query, flush the queue, and send GOODBYE last.
  for (auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
}

runtime::RuntimeStats SocketServer::stats() const {
  runtime::RuntimeStats stats = server_->runtime().stats();
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.net_malformed_frames =
      malformed_frames_.load(std::memory_order_relaxed);
  stats.net_aborted_streams =
      aborted_streams_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (const auto& conn : conns_) {
    if (conn->finished.load(std::memory_order_acquire)) continue;
    std::lock_guard<std::mutex> conn_lock(conn->mu);
    stats.connections.push_back(conn->stats);
  }
  stats.connections_active =
      static_cast<uint32_t>(stats.connections.size());
  return stats;
}

void SocketServer::AcceptLoop() {
  for (;;) {
    Result<Socket> client = listener_.Accept(kIdleSliceMs, &stopping_);
    {
      // Reap finished connections so a long-lived server does not
      // accumulate joined-out thread objects.
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (auto it = conns_.begin(); it != conns_.end();) {
        if ((*it)->finished.load(std::memory_order_acquire)) {
          if ((*it)->reader.joinable()) (*it)->reader.join();
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (!client.ok()) {
      if (client.status().IsCancelled()) break;  // Stop()
      continue;  // accept timeout slice or transient error
    }
    auto conn = std::make_shared<Connection>();
    conn->id = next_connection_id_.fetch_add(1);
    conn->sock = std::move(client).value();
    if (options_.kernel_send_buffer_bytes > 0) {
      // Best effort: a failed shrink costs back-pressure precision,
      // not correctness.
      (void)conn->sock.SetSendBufferBytes(
          options_.kernel_send_buffer_bytes);
    }
    conn->stats.id = conn->id;
    conn->stats.peer = PeerName(conn->sock.fd());
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    conn->writer = std::thread(&SocketServer::WriterLoop, this, conn);
    conn->reader = std::thread(&SocketServer::ReaderLoop, this, conn);
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(std::move(conn));
  }
}

void SocketServer::ReaderLoop(const std::shared_ptr<Connection>& conn) {
  ServeSession(*conn);
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closing = true;
  }
  conn->can_pop.notify_all();
  if (conn->writer.joinable()) conn->writer.join();
  conn->sock.Close();
  conn->finished.store(true, std::memory_order_release);
}

void SocketServer::WriterLoop(const std::shared_ptr<Connection>& conn) {
  for (;;) {
    std::string frame;
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      conn->can_pop.wait(lock, [&] {
        return conn->abort.load(std::memory_order_relaxed) ||
               conn->closing || !conn->queue.empty();
      });
      if (conn->abort.load(std::memory_order_relaxed)) break;
      if (conn->queue.empty()) {
        if (conn->closing) break;
        continue;
      }
      frame = std::move(conn->queue.front());
      conn->queue.pop_front();
      // queue_bytes stays charged until the write finished: the bound
      // covers bytes queued OR in flight, so back-pressure cannot hide
      // a frame the kernel has not accepted yet.
    }
    const Status written = conn->sock.WriteAll(
        frame.data(), frame.size(), options_.write_timeout_ms,
        &conn->abort);
    if (!written.ok()) {
      // Dead or stuck client: cut the connection. The reader notices
      // the abort within one poll slice and cancels any in-flight
      // query.
      Abort(*conn);
      break;
    }
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->queue_bytes -= frame.size();
      conn->stats.buffer_bytes = conn->queue_bytes;
      conn->stats.bytes_out += frame.size();
      ++conn->stats.frames_out;
    }
    conn->can_push.notify_all();
  }
  conn->can_push.notify_all();
}

void SocketServer::Abort(Connection& conn) {
  conn.abort.store(true, std::memory_order_relaxed);
  conn.can_push.notify_all();
  conn.can_pop.notify_all();
}

Result<Frame> SocketServer::ReadFrame(Connection& conn, int timeout_ms) {
  // First-byte wait in short slices: server drain and aborts must be
  // noticed long before the (deliberately generous) idle timeout.
  Stopwatch idle;
  for (;;) {
    if (stopping_.load(std::memory_order_relaxed)) {
      return Status::Cancelled("server draining");
    }
    const Status ready = conn.sock.WaitReadable(kIdleSliceMs, &conn.abort);
    if (ready.ok()) break;
    if (!ready.IsTimedOut()) return ready;  // cancelled (abort) / io
    if (timeout_ms >= 0 && idle.ElapsedMillis() >= timeout_ms) {
      return Status::TimedOut("no frame within the read timeout");
    }
  }
  char header_bytes[kFrameHeaderBytes];
  WF_RETURN_NOT_OK(conn.sock.ReadExact(header_bytes, kFrameHeaderBytes,
                                       options_.read_timeout_ms,
                                       &conn.abort));
  Result<FrameHeader> decoded =
      DecodeFrameHeader(header_bytes, options_.max_frame_bytes);
  if (!decoded.ok()) {
    // Our own client never emits an undecodable header, so one on the
    // wire means the byte stream itself went bad (damaged or lost
    // bytes) — typed, mirroring the client's mid-session rule.
    return Status::FrameCorrupt("undecodable frame header (" +
                                decoded.status().message() + ")");
  }
  const FrameHeader header = decoded.value();
  Frame frame;
  frame.type = header.type;
  frame.payload.resize(header.payload_length);
  if (header.payload_length > 0) {
    WF_RETURN_NOT_OK(conn.sock.ReadExact(frame.payload.data(),
                                         header.payload_length,
                                         options_.read_timeout_ms,
                                         &conn.abort));
  }
  // A bad checksum is typed kFrameCorrupt: a flipped bit in a QUERY
  // must surface as corruption, never run as a different valid query.
  WF_RETURN_NOT_OK(VerifyFramePayload(header, frame.payload));
  std::lock_guard<std::mutex> lock(conn.mu);
  conn.stats.bytes_in += kFrameHeaderBytes + header.payload_length;
  ++conn.stats.frames_in;
  return frame;
}

std::string SocketServer::EncodeStatusSnapshot() const {
  const runtime::RuntimeStats rs = server_->runtime().stats();
  const runtime::AdmissionControl& adm =
      server_->runtime().options().admission;
  StatusFrame status;
  for (const runtime::TenantStats& ts : rs.tenants) {
    status.running += ts.running;
    status.queued += ts.queued;
    TenantLoadFrame tenant;
    tenant.name = ts.tenant;
    tenant.weight = ts.weight;
    tenant.running = ts.running;
    tenant.queued = ts.queued;
    tenant.completed = ts.completed;
    tenant.shed = ts.rejected;
    tenant.brownout_rejected = ts.brownout_rejected;
    status.tenants.push_back(std::move(tenant));
  }
  status.max_inflight = adm.max_inflight;
  status.max_queued = adm.max_queued;
  status.overloaded = server_->runtime().overloaded() ? 1 : 0;
  status.retry_after_ms =
      status.overloaded != 0 ? adm.brownout_retry_after_ms : 0;
  return EncodeStatus(status);
}

bool SocketServer::PushFrame(Connection& conn, FrameType type,
                             const std::string& payload) {
  std::string frame;
  AppendFrame(type, payload, &frame);
  std::unique_lock<std::mutex> lock(conn.mu);
  for (;;) {
    if (conn.abort.load(std::memory_order_relaxed)) return false;
    if (conn.closing) return false;
    if (conn.queue.empty() ||
        conn.queue_bytes + frame.size() <= options_.send_buffer_bytes) {
      break;
    }
    // Bounded overall: a client that neither reads nor dies trips the
    // writer's write timeout, which aborts the connection and pops us
    // out of this wait.
    conn.can_push.wait_for(lock, kPushSlice);
  }
  conn.queue_bytes += frame.size();
  conn.stats.buffer_bytes = conn.queue_bytes;
  conn.stats.buffer_high_water =
      std::max(conn.stats.buffer_high_water, conn.queue_bytes);
  conn.queue.push_back(std::move(frame));
  conn.can_pop.notify_one();
  return true;
}

void SocketServer::ServeSession(Connection& conn) {
  const auto reply_error = [&](const Status& status) {
    PushFrame(conn, FrameType::kError,
              EncodeError({status.code(), status.message()}));
  };

  // Handshake: HELLO must be the first frame, within its own (tight)
  // timeout so half-open connections cannot pin a session slot.
  Result<Frame> first = ReadFrame(conn, options_.hello_timeout_ms);
  if (!first.ok()) {
    if (IsMalformed(first.status())) {
      malformed_frames_.fetch_add(1, std::memory_order_relaxed);
      reply_error(first.status());
    } else if (first.status().IsTimedOut()) {
      reply_error(Status::TimedOut("expected HELLO within the handshake "
                                   "timeout"));
    }
    return;  // disconnect / drain: close silently
  }
  if (first->type != FrameType::kHello) {
    reply_error(Status::InvalidArgument(
        std::string("expected HELLO as the first frame, got ") +
        FrameTypeName(first->type)));
    return;
  }
  Result<HelloFrame> hello = DecodeHello(first->payload);
  if (!hello.ok()) {
    malformed_frames_.fetch_add(1, std::memory_order_relaxed);
    reply_error(hello.status());
    return;
  }
  conn.service_class = hello->service_class;
  const std::string resolved = server_->runtime().ResolveServiceClassName(
      conn.service_class.empty()
          ? server_->options().default_service_class
          : conn.service_class);
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    conn.stats.service_class = resolved;
  }
  HelloAckFrame ack;
  ack.max_frame_bytes = options_.max_frame_bytes;
  ack.rows_per_batch = options_.rows_per_batch;
  ack.resolved_service_class = resolved;
  if (!PushFrame(conn, FrameType::kHelloAck, EncodeHelloAck(ack))) return;

  bool want_goodbye = false;
  for (bool session_open = true; session_open;) {
    if (stopping_.load(std::memory_order_relaxed)) {
      want_goodbye = true;
      break;
    }
    if (conn.abort.load(std::memory_order_relaxed)) break;
    Result<Frame> frame = ReadFrame(conn, options_.idle_timeout_ms);
    if (!frame.ok()) {
      const Status& status = frame.status();
      if (IsMalformed(status)) {
        malformed_frames_.fetch_add(1, std::memory_order_relaxed);
        reply_error(status);
      } else if (status.IsTimedOut()) {
        reply_error(Status::TimedOut(
            "idle connection reaped: no frame (not even a PING) within "
            "the idle timeout"));
      } else if (status.IsCancelled() &&
                 stopping_.load(std::memory_order_relaxed)) {
        want_goodbye = true;
      }
      break;
    }
    switch (frame->type) {
      case FrameType::kQuery: {
        Result<QueryFrame> query = DecodeQuery(frame->payload);
        if (!query.ok()) {
          malformed_frames_.fetch_add(1, std::memory_order_relaxed);
          reply_error(query.status());
          session_open = false;
          break;
        }
        session_open = ServeQuery(conn, *query);
        break;
      }
      case FrameType::kCancel:
        break;  // nothing in flight; harmless
      case FrameType::kPing:
        if (!PushFrame(conn, FrameType::kPong, std::string())) {
          session_open = false;
        }
        break;
      case FrameType::kStatus:
        if (!PushFrame(conn, FrameType::kStatus, EncodeStatusSnapshot())) {
          session_open = false;
        }
        break;
      case FrameType::kGoodbye:
        want_goodbye = true;
        session_open = false;
        break;
      case FrameType::kHello:
        reply_error(Status::InvalidArgument("duplicate HELLO"));
        session_open = false;
        break;
      default:
        reply_error(Status::InvalidArgument(
            std::string("unexpected ") + FrameTypeName(frame->type) +
            " frame from client"));
        session_open = false;
        break;
    }
  }
  if (conn.client_goodbye ||
      (stopping_.load(std::memory_order_relaxed) &&
       !conn.abort.load(std::memory_order_relaxed))) {
    want_goodbye = true;
  }
  if (want_goodbye && !conn.abort.load(std::memory_order_relaxed)) {
    PushFrame(conn, FrameType::kGoodbye, std::string());
  }
}

bool SocketServer::ServeQuery(Connection& conn, const QueryFrame& query) {
  uint64_t sequence;
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    sequence = conn.stats.queries++;
  }
  // The sink's suspension budget mirrors the query's execution budget
  // (request override, else server default, else admission default).
  double effective_timeout = query.timeout_seconds;
  if (effective_timeout < 0) {
    effective_timeout = server_->options().timeout_seconds;
  }
  if (effective_timeout < 0) {
    effective_timeout = server_->runtime()
                            .options()
                            .admission.default_timeout_seconds;
  }
  StreamSink sink(options_, &conn, effective_timeout);
  runtime::SubmitRejection rejection;
  Result<std::shared_ptr<runtime::QuerySession>> submitted =
      server_->Submit(query.sparql, &sink, conn.service_class,
                      query.timeout_seconds, query.row_budget, &rejection);
  if (!submitted.ok()) {
    // Rejected before a session existed (parse error or admission
    // shed): same report shape RunBatch produces — resolved class,
    // admitted=false, the status saying why. A brownout rejection also
    // carries its retry-after hint so well-behaved clients back off by
    // at least that much.
    runtime::QueryReport report;
    report.index = sequence;
    report.admitted = false;
    report.outcome = runtime::QueryOutcome::kFailed;
    report.status = submitted.status();
    report.retry_after_ms = rejection.retry_after_ms;
    report.service_class = server_->runtime().ResolveServiceClassName(
        conn.service_class.empty()
            ? server_->options().default_service_class
            : conn.service_class);
    return PushFrame(conn, FrameType::kReport, EncodeReport(report));
  }
  std::shared_ptr<runtime::QuerySession> session =
      std::move(submitted).value();

  // Pump the socket while the query runs: CANCEL, GOODBYE, disconnect,
  // and server drain all need to reach a running (or suspended) query.
  bool disconnected = false;
  while (!session->done()) {
    if (stopping_.load(std::memory_order_relaxed)) {
      session->Cancel();
      sink.RequestCancel();
    }
    if (conn.abort.load(std::memory_order_relaxed)) {
      session->Cancel();
      sink.RequestCancel();
      disconnected = true;
      session->Wait();
      break;
    }
    // Completion wakes the cv wait immediately; the socket then gets
    // one short poll so CANCEL/GOODBYE/EOF are still noticed within a
    // pump slice — without the query's result latency paying the slice.
    if (session->WaitFor(kPumpSliceMs / 1000.0)) break;
    const Status ready = conn.sock.WaitReadable(1, &conn.abort);
    if (ready.IsTimedOut()) continue;
    if (!ready.ok()) {
      session->Cancel();
      sink.RequestCancel();
      disconnected = true;
      session->Wait();
      break;
    }
    Result<Frame> frame = ReadFrame(conn, options_.read_timeout_ms);
    if (!frame.ok()) {
      session->Cancel();
      sink.RequestCancel();
      if (IsMalformed(frame.status())) {
        malformed_frames_.fetch_add(1, std::memory_order_relaxed);
        PushFrame(conn, FrameType::kError,
                  EncodeError({frame.status().code(),
                               frame.status().message()}));
        session->Wait();
        return false;  // framing broken: ERROR flushed, then close
      }
      disconnected = true;
      session->Wait();
      break;
    }
    switch (frame->type) {
      case FrameType::kCancel: {
        session->Cancel();
        sink.RequestCancel();
        std::lock_guard<std::mutex> lock(conn.mu);
        ++conn.stats.cancels;
        break;
      }
      case FrameType::kGoodbye:
        conn.client_goodbye = true;
        session->Cancel();
        sink.RequestCancel();
        break;
      case FrameType::kPing:
        // Answered even mid-query: PONG rides the same ordered stream,
        // so a client waiting out a long query sees proof of life.
        PushFrame(conn, FrameType::kPong, std::string());
        break;
      case FrameType::kStatus:
        PushFrame(conn, FrameType::kStatus, EncodeStatusSnapshot());
        break;
      default:
        PushFrame(
            conn, FrameType::kError,
            EncodeError({StatusCode::kInvalidArgument,
                         std::string("unexpected ") +
                             FrameTypeName(frame->type) +
                             " while a query is in flight (one query "
                             "at a time per connection)"}));
        break;
    }
  }
  session->Wait();

  if (disconnected) {
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      ++conn.stats.aborted_streams;
    }
    aborted_streams_.fetch_add(1, std::memory_order_relaxed);
    Abort(conn);
    return false;
  }

  sink.Finish();
  if (!sink.stream_status().ok() &&
      sink.stream_status().code() == StatusCode::kIOError) {
    // The connection died under the stream; no REPORT can be delivered.
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      ++conn.stats.aborted_streams;
    }
    aborted_streams_.fetch_add(1, std::memory_order_relaxed);
    Abort(conn);
    return false;
  }

  runtime::QueryReport report;
  report.index = sequence;
  report.admitted = true;
  report.service_class = session->service_class();
  report.outcome = session->outcome();
  report.status = session->status();
  report.stats = session->stats();
  report.cache_hit = session->cache_hit();
  report.has_aggregate = session->has_aggregate();
  report.rows = session->rows_emitted();
  report.queue_seconds = session->queue_seconds();
  report.run_seconds = session->run_seconds();
  // A sink that refused rows reads as a clean stop to the engine; the
  // suspension record says what actually happened.
  if (report.outcome == runtime::QueryOutcome::kCompleted &&
      !sink.stream_status().ok()) {
    report.status = sink.stream_status();
    report.outcome = sink.stream_status().IsTimedOut()
                         ? runtime::QueryOutcome::kTimedOut
                         : runtime::QueryOutcome::kCancelled;
  }

  if (report.has_aggregate) {
    const std::string aggregate = EncodeAggregate(session->aggregate());
    if (aggregate.size() > options_.max_frame_bytes) {
      report.has_aggregate = false;
      PushFrame(conn, FrameType::kError,
                EncodeError({StatusCode::kResourceExhausted,
                             "aggregate result exceeds the frame size "
                             "limit"}));
    } else if (!PushFrame(conn, FrameType::kAggregate, aggregate)) {
      return false;
    }
  }
  if (!PushFrame(conn, FrameType::kReport, EncodeReport(report))) {
    return false;
  }
  return !conn.client_goodbye;
}

}  // namespace net
}  // namespace wireframe
