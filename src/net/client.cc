#include "net/client.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "net/fault_injection.h"

namespace wireframe {
namespace net {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Poll slice while waiting for frames with liveness enabled: short
/// enough that ping deadlines are honored promptly.
constexpr int kLivenessSliceMs = 50;

}  // namespace

std::span<const NodeId> RowTable::Row(size_t i) const {
  // The batch holding row i is the last one starting at or before it.
  const size_t batch =
      std::upper_bound(first_row_.begin(), first_row_.end(), i) -
      first_row_.begin() - 1;
  return {batches_[batch].data.data() + (i - first_row_[batch]) * width_,
          width_};
}

std::vector<std::vector<NodeId>> RowTable::ToVectors() const {
  std::vector<std::vector<NodeId>> rows;
  rows.reserve(rows_);
  for (std::span<const NodeId> row : *this) {
    rows.emplace_back(row.begin(), row.end());
  }
  return rows;
}

Status RowTable::Append(RowBatchFrame&& batch) {
  if (width_ == 0) width_ = batch.width;
  if (batch.width != width_) {
    return Status::Internal("row batch width changed mid-stream");
  }
  if (batch.data.empty()) return Status::OK();
  first_row_.push_back(rows_);
  rows_ += batch.rows();
  batches_.push_back(std::move(batch));
  return Status::OK();
}

Result<std::unique_ptr<Client>> Client::Connect(const std::string& address,
                                               ClientOptions options) {
  WF_ASSIGN_OR_RETURN(SocketAddress parsed, SocketAddress::Parse(address));
  WF_ASSIGN_OR_RETURN(Socket sock,
                      Socket::Connect(parsed, options.connect_timeout_ms,
                                      options.recv_buffer_bytes));
  if (options.fault_injector != nullptr) {
    sock.ArmFaults(options.fault_injector);
  }
  std::unique_ptr<Client> client(
      new Client(std::move(sock), std::move(options)));
  HelloFrame hello;
  hello.service_class = client->options_.service_class;
  WF_RETURN_NOT_OK(
      client->SendFrame(FrameType::kHello, EncodeHello(hello)));
  WF_ASSIGN_OR_RETURN(Frame ack, client->ReadFrame());
  if (ack.type == FrameType::kError) {
    WF_ASSIGN_OR_RETURN(ErrorFrame error, DecodeError(ack.payload));
    return error.ToStatus();
  }
  if (ack.type != FrameType::kHelloAck) {
    return Status::Internal(
        std::string("expected HELLO-ACK, got ") + FrameTypeName(ack.type));
  }
  WF_ASSIGN_OR_RETURN(client->hello_, DecodeHelloAck(ack.payload));
  return client;
}

Status Client::SendFrame(FrameType type, const std::string& payload) {
  std::string frame;
  AppendFrame(type, payload, &frame);
  return sock_.WriteAll(frame.data(), frame.size(),
                        options_.io_timeout_ms);
}

Result<Frame> Client::ReadFrame() {
  char header_bytes[kFrameHeaderBytes];
  WF_RETURN_NOT_OK(sock_.ReadExact(header_bytes, kFrameHeaderBytes,
                                   options_.io_timeout_ms));
  Result<FrameHeader> header =
      DecodeFrameHeader(header_bytes, options_.max_frame_bytes);
  if (!header.ok()) {
    // The handshake already proved the server speaks our protocol, so
    // an undecodable header mid-session means the byte stream itself
    // went bad (lost or damaged bytes) — typed so retry policy treats
    // it as a broken stream, not a caller bug.
    return Status::FrameCorrupt("undecodable frame header (" +
                                header.status().message() + ")");
  }
  Frame frame;
  frame.type = header->type;
  frame.payload.resize(header->payload_length);
  if (header->payload_length > 0) {
    WF_RETURN_NOT_OK(sock_.ReadExact(frame.payload.data(),
                                     header->payload_length,
                                     options_.io_timeout_ms));
  }
  WF_RETURN_NOT_OK(VerifyFramePayload(*header, frame.payload));
  return frame;
}

Result<Frame> Client::ReadFrameWithLiveness() {
  if (options_.ping_interval_ms <= 0) return ReadFrame();
  const int64_t start = NowMs();
  int64_t last_ping = start;
  for (;;) {
    Status ready = sock_.WaitReadable(kLivenessSliceMs);
    if (ready.ok()) return ReadFrame();
    if (!ready.IsTimedOut()) return ready;
    const int64_t now = NowMs();
    if (options_.io_timeout_ms >= 0 &&
        now - start >= options_.io_timeout_ms) {
      return Status::TimedOut("read timed out");
    }
    // Any frame at all resets the clock (this function returns on each
    // one), so "silent past the ping timeout despite pings" can only
    // mean a dead or wedged peer — a live server answers PING with
    // PONG in stream order even while a query runs.
    if (options_.ping_timeout_ms > 0 &&
        now - start >= options_.ping_timeout_ms) {
      return Status::ConnectionReset(
          "peer unresponsive: no frame for " +
          std::to_string(now - start) + " ms despite pings");
    }
    if (now - last_ping >= options_.ping_interval_ms) {
      WF_RETURN_NOT_OK(SendFrame(FrameType::kPing, std::string()));
      last_ping = now;
    }
  }
}

Result<QueryResult> Client::Run(const QueryFrame& query,
                                const BatchHook& hook) {
  WF_RETURN_NOT_OK(SendFrame(FrameType::kQuery, EncodeQuery(query)));
  QueryResult result;
  bool have_aggregate = false;
  AggregateResult aggregate;
  // Overall deadline for the whole query, PONG traffic included — see
  // ClientOptions::query_timeout_ms for why liveness alone cannot bound
  // this loop.
  const int64_t deadline =
      options_.query_timeout_ms > 0
          ? NowMs() + options_.query_timeout_ms
          : -1;
  for (;;) {
    if (deadline >= 0 && NowMs() >= deadline) {
      return Status::TimedOut(
          "query deadline exceeded after " +
          std::to_string(options_.query_timeout_ms) +
          " ms (peer alive but the result stream is not progressing)");
    }
    WF_ASSIGN_OR_RETURN(Frame frame, ReadFrameWithLiveness());
    switch (frame.type) {
      case FrameType::kPong:
        break;  // liveness answer — not part of the query stream
      case FrameType::kRowBatch: {
        WF_ASSIGN_OR_RETURN(RowBatchFrame batch,
                            DecodeRowBatch(frame.payload));
        if (hook) hook(batch);
        WF_RETURN_NOT_OK(result.rows.Append(std::move(batch)));
        break;
      }
      case FrameType::kAggregate: {
        WF_ASSIGN_OR_RETURN(aggregate, DecodeAggregate(frame.payload));
        have_aggregate = true;
        break;
      }
      case FrameType::kReport: {
        WF_ASSIGN_OR_RETURN(result.report, DecodeReport(frame.payload));
        if (have_aggregate) result.report.aggregate = aggregate;
        return result;
      }
      case FrameType::kError: {
        WF_ASSIGN_OR_RETURN(ErrorFrame error, DecodeError(frame.payload));
        return error.ToStatus();
      }
      default:
        return Status::Internal(std::string("unexpected ") +
                                FrameTypeName(frame.type) +
                                " frame in a query stream");
    }
  }
}

Status Client::SendCancel() {
  return SendFrame(FrameType::kCancel, std::string());
}

Status Client::Ping() {
  WF_RETURN_NOT_OK(SendFrame(FrameType::kPing, std::string()));
  for (;;) {
    WF_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
    if (frame.type == FrameType::kPong) return Status::OK();
    if (frame.type == FrameType::kError) {
      WF_ASSIGN_OR_RETURN(ErrorFrame error, DecodeError(frame.payload));
      return error.ToStatus();
    }
    // Anything else still in flight drains past the probe.
  }
}

Result<StatusFrame> Client::QueryStatus() {
  WF_RETURN_NOT_OK(SendFrame(FrameType::kStatus, std::string()));
  for (;;) {
    WF_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
    if (frame.type == FrameType::kStatus) {
      return DecodeStatus(frame.payload);
    }
    if (frame.type == FrameType::kError) {
      WF_ASSIGN_OR_RETURN(ErrorFrame error, DecodeError(frame.payload));
      return error.ToStatus();
    }
    if (frame.type == FrameType::kPong) continue;
    return Status::Internal(std::string("unexpected ") +
                            FrameTypeName(frame.type) +
                            " frame while awaiting STATUS");
  }
}

Status Client::Goodbye() {
  Status status = SendFrame(FrameType::kGoodbye, std::string());
  while (status.ok()) {
    Result<Frame> frame = ReadFrame();
    if (!frame.ok()) {
      status = frame.status();
      break;
    }
    if (frame->type == FrameType::kGoodbye) break;
    // Anything still queued ahead of the GOODBYE drains through here.
  }
  sock_.Close();
  return status;
}

}  // namespace net
}  // namespace wireframe
