#ifndef WIREFRAME_NET_WIRE_H_
#define WIREFRAME_NET_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "exec/aggregate_executor.h"
#include "runtime/server.h"
#include "util/common.h"
#include "util/result.h"
#include "util/status.h"

namespace wireframe {
namespace net {

/// Protocol version carried in every frame header. A server rejects any
/// other value with a typed ERROR frame and closes the connection (no
/// in-band negotiation: the handshake is one HELLO/HELLO-ACK exchange).
/// v2 repurposed the reserved header u16 as a payload checksum and added
/// the PING/PONG/STATUS liveness frames.
inline constexpr uint8_t kWireVersion = 2;

/// Default cap on a single frame's payload. Anything larger is rejected
/// as oversized BEFORE the payload is read, so a hostile length prefix
/// cannot make the server allocate.
inline constexpr uint32_t kDefaultMaxFrameBytes = 4u << 20;

/// Frame types of the query stream protocol. One connection carries one
/// session: HELLO -> HELLO-ACK, then any number of QUERY -> (ROW-BATCH*
/// [AGGREGATE] REPORT) exchanges, one query in flight at a time. CANCEL
/// addresses the in-flight query; GOODBYE drains and closes (the server
/// flushes every pending frame, then answers GOODBYE — that ordering is
/// part of the contract). ERROR is sent for protocol violations; framing
/// violations (bad version, unknown type, oversized or malformed
/// payload) additionally close the connection, since the byte stream can
/// no longer be trusted.
enum class FrameType : uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kQuery = 3,
  kRowBatch = 4,
  kAggregate = 5,
  kReport = 6,
  kError = 7,
  kCancel = 8,
  kGoodbye = 9,
  // v2 liveness frames. PING/PONG carry empty payloads and may be sent
  // by the client at any point after HELLO, including while a query
  // streams; the server answers in stream order and resets its idle
  // clock. STATUS (empty payload from the client) asks for a load
  // snapshot; the server replies with an encoded StatusFrame.
  kPing = 10,
  kPong = 11,
  kStatus = 12,
};

const char* FrameTypeName(FrameType type);

/// Fixed 8-byte frame header, little-endian on the wire:
///   u32 payload_length | u8 version | u8 type | u16 checksum
/// The checksum is Fletcher-16 over the six non-checksum header bytes
/// (payload_length, version, type — exactly as laid out on the wire)
/// followed by the payload bytes. It exists so a flipped bit in transit
/// becomes a typed kFrameCorrupt error instead of a silently different —
/// but still parseable — frame: covering the header too means a damaged
/// type byte cannot turn one valid frame kind into another (a corrupted
/// QUERY must never run as a valid query with wrong-but-plausible rows,
/// and a HELLO must never arrive as an AGGREGATE).
struct FrameHeader {
  uint32_t payload_length = 0;
  uint8_t version = kWireVersion;
  FrameType type = FrameType::kError;
  uint16_t checksum = 0;
};

inline constexpr size_t kFrameHeaderBytes = 8;

/// Fletcher-16 over `n` bytes, mod 255. Cheap (on SSE2 hosts, sixteen
/// bytes per step: one SAD for the plain sum and two multiply-adds for
/// the position-weighted sum; elsewhere two adds per byte), catches
/// every single-bit flip and all but ~0.002% of random corruption —
/// plenty for detecting fault-injected damage; this is not a
/// cryptographic MAC. Both paths compute the same value: the
/// definition is the byte loop `sum1 += byte; sum2 += sum1;`.
uint16_t FrameChecksum(const char* data, size_t n);

/// The checksum a well-formed frame of `type` carrying `payload` must
/// carry: Fletcher-16 over the reconstructed 6-byte header prefix
/// (payload_length = n, version = kWireVersion, type) followed by the
/// payload. Both AppendFrame and VerifyFramePayload use this, so header
/// damage is caught with the same machinery as payload damage.
uint16_t FrameChecksum(FrameType type, const char* payload, size_t n);

/// Verifies `payload` against the checksum carried in `header`. Returns
/// kFrameCorrupt on mismatch. Every frame-read site calls this after
/// reading the payload bytes.
Status VerifyFramePayload(const FrameHeader& header,
                          const std::string& payload);

/// One decoded frame: header plus raw payload bytes.
struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Serializes `header` into exactly kFrameHeaderBytes at `out`.
void EncodeFrameHeader(const FrameHeader& header, char* out);

/// Parses a header from exactly kFrameHeaderBytes. Rejects bad version,
/// unknown type, and payloads past `max_frame_bytes` (the oversized case
/// names the limit so clients can tell it apart from corruption). The
/// checksum is parsed but NOT verified here — the payload has not been
/// read yet; callers verify with VerifyFramePayload.
Result<FrameHeader> DecodeFrameHeader(const char* data,
                                      uint32_t max_frame_bytes);

/// Appends header + payload to `out` as one wire-ready frame.
void AppendFrame(FrameType type, const std::string& payload,
                 std::string* out);

/// Seals a frame built in place: `frame` holds kFrameHeaderBytes of room
/// followed by the payload, and this writes the header over that room,
/// checksum included. The result is byte-identical to AppendFrame of the
/// same payload, without copying the payload into a second string.
void SealFrame(FrameType type, std::string* frame);

/// Little-endian payload writer. All multi-byte integers are LE; strings
/// are u32 length + bytes.
class WireWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { AppendRaw(&v, sizeof v); }
  void U64(uint64_t v) { AppendRaw(&v, sizeof v); }
  void I64(int64_t v) { AppendRaw(&v, sizeof v); }
  void F64(double v) { AppendRaw(&v, sizeof v); }
  void String(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.append(s);
  }

  std::string Take() { return std::move(out_); }

 private:
  void AppendRaw(const void* p, size_t n) {
    out_.append(static_cast<const char*>(p), n);
  }
  std::string out_;
};

/// Bounds-checked payload reader: every read that would run past the end
/// trips the failed() flag instead of reading garbage, so decoders check
/// once at the end and report one malformed-payload error.
class WireReader {
 public:
  explicit WireReader(const std::string& data) : data_(data) {}

  uint8_t U8() {
    uint8_t v = 0;
    ReadRaw(&v, sizeof v);
    return v;
  }
  uint32_t U32() {
    uint32_t v = 0;
    ReadRaw(&v, sizeof v);
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    ReadRaw(&v, sizeof v);
    return v;
  }
  int64_t I64() {
    int64_t v = 0;
    ReadRaw(&v, sizeof v);
    return v;
  }
  double F64() {
    double v = 0;
    ReadRaw(&v, sizeof v);
    return v;
  }
  std::string String() {
    const uint32_t n = U32();
    if (failed_ || data_.size() - pos_ < n) {
      failed_ = true;
      return {};
    }
    std::string s(data_.data() + pos_, n);
    pos_ += n;
    return s;
  }

  bool failed() const { return failed_; }
  /// True iff every byte was consumed and nothing failed — decoders
  /// require this so trailing garbage counts as malformed.
  bool Exhausted() const { return !failed_ && pos_ == data_.size(); }

 private:
  void ReadRaw(void* p, size_t n) {
    if (failed_ || data_.size() - pos_ < n) {
      failed_ = true;
      return;
    }
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
  }
  const std::string& data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

// --- Typed payloads. Encode returns the payload; Decode validates that
// --- the payload parses exactly (no trailing bytes) and is otherwise
// --- malformed.

/// HELLO (client -> server, must be the first frame): the service class
/// every query of this connection runs as (empty = server default).
struct HelloFrame {
  std::string service_class;
};
std::string EncodeHello(const HelloFrame& hello);
Result<HelloFrame> DecodeHello(const std::string& payload);

/// HELLO-ACK (server -> client): the limits the client must respect.
struct HelloAckFrame {
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  uint32_t rows_per_batch = 0;
  std::string resolved_service_class;
};
std::string EncodeHelloAck(const HelloAckFrame& ack);
Result<HelloAckFrame> DecodeHelloAck(const std::string& payload);

/// QUERY: SPARQL text plus per-query overrides (negative = inherit the
/// server default, mirroring QueryRequest).
struct QueryFrame {
  std::string sparql;
  double timeout_seconds = -1.0;
  int64_t row_budget = -1;
};
std::string EncodeQuery(const QueryFrame& query);
Result<QueryFrame> DecodeQuery(const std::string& payload);

/// ROW-BATCH: a run of result rows, row-major. `width` is the query's
/// variable count and every batch of one stream carries the same width.
/// Payload layout:
///   u32 width | u32 rows | rows x width u32 node ids, row-major
/// The server's StreamSink writes this layout straight into the frame it
/// queues (EncodeRowBatchHeader, then the rows, then SealFrame); the
/// client decodes each payload into one RowBatchFrame and keeps it whole
/// (net::RowTable), so no hop copies a row more than once.
struct RowBatchFrame {
  uint32_t width = 0;
  std::vector<NodeId> data;  // rows() x width, row-major

  size_t rows() const { return width == 0 ? 0 : data.size() / width; }
};

/// Bytes of the ROW-BATCH payload before its rows: u32 width | u32 rows.
inline constexpr size_t kRowBatchHeaderBytes = 8;
/// Writes the ROW-BATCH payload header (kRowBatchHeaderBytes) at `out`.
void EncodeRowBatchHeader(uint32_t width, uint32_t rows, char* out);

std::string EncodeRowBatch(const RowBatchFrame& batch);
/// Rejects a zero width and any payload whose size is not exactly the
/// header plus rows x width ids (checked without overflow, so a hostile
/// width or row count is malformed, never a huge allocation).
Result<RowBatchFrame> DecodeRowBatch(const std::string& payload);

/// AGGREGATE: the out-of-band aggregate answer (COUNT/ASK/GROUP BY), sent
/// once before REPORT when the query carried one.
std::string EncodeAggregate(const AggregateResult& result);
Result<AggregateResult> DecodeAggregate(const std::string& payload);

/// REPORT: the terminal frame of one query — a flattened
/// runtime::QueryReport (minus the aggregate, which travels in its own
/// frame so huge GROUP BY answers do not bloat every report).
std::string EncodeReport(const runtime::QueryReport& report);
Result<runtime::QueryReport> DecodeReport(const std::string& payload);

/// STATUS (server -> client): a point-in-time load snapshot so callers
/// can observe pressure and back off before the brownout watermark
/// sheds them. The client requests one with an empty-payload kStatus
/// frame between queries.
struct TenantLoadFrame {
  std::string name;
  uint32_t weight = 0;
  uint32_t running = 0;
  uint32_t queued = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t brownout_rejected = 0;
};
struct StatusFrame {
  uint32_t running = 0;
  uint32_t queued = 0;
  uint32_t max_inflight = 0;
  uint32_t max_queued = 0;
  uint8_t overloaded = 0;  // 1 iff the brownout watermark is exceeded
  uint32_t retry_after_ms = 0;  // backoff hint when overloaded
  std::vector<TenantLoadFrame> tenants;
};
std::string EncodeStatus(const StatusFrame& status);
Result<StatusFrame> DecodeStatus(const std::string& payload);

/// ERROR: a typed status for protocol-level failures (malformed frame,
/// oversized frame, QUERY before HELLO, double HELLO, ...). Query-level
/// failures (parse errors, admission rejections) travel in REPORT
/// instead — they terminate a query, not the connection.
struct ErrorFrame {
  StatusCode code = StatusCode::kInternal;
  std::string message;

  Status ToStatus() const { return Status(code, message); }
};
std::string EncodeError(const ErrorFrame& error);
Result<ErrorFrame> DecodeError(const std::string& payload);

}  // namespace net
}  // namespace wireframe

#endif  // WIREFRAME_NET_WIRE_H_
