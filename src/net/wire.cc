#include "net/wire.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace wireframe {
namespace net {

namespace {

/// Little-endian store/load of the header fields. The payload helpers
/// memcpy native-endian; the repo targets little-endian hosts only (the
/// same assumption storage/serializer.cc bakes into snapshots), so the
/// header is the one place spelled out byte by byte — it is what a
/// foreign client would implement first.
void StoreU32Le(uint32_t v, char* out) {
  out[0] = static_cast<char>(v & 0xff);
  out[1] = static_cast<char>((v >> 8) & 0xff);
  out[2] = static_cast<char>((v >> 16) & 0xff);
  out[3] = static_cast<char>((v >> 24) & 0xff);
}

uint32_t LoadU32Le(const char* data) {
  return static_cast<uint32_t>(static_cast<unsigned char>(data[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(data[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(data[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(data[3])) << 24;
}

bool KnownFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kHello) &&
         type <= static_cast<uint8_t>(FrameType::kStatus);
}

bool KnownStatusCode(uint8_t code) {
  return code <= static_cast<uint8_t>(StatusCode::kStreamBroken);
}

Status Malformed(const char* what) {
  return Status::ParseError(std::string("malformed ") + what + " payload");
}

void WriteAggregateValue(WireWriter* w, const AggregateValue& v) {
  w->U64(v.lo);
  w->U64(v.hi);
  w->U8(v.saturated ? 1 : 0);
}

AggregateValue ReadAggregateValue(WireReader* r) {
  AggregateValue v;
  v.lo = r->U64();
  v.hi = r->U64();
  v.saturated = r->U8() != 0;
  return v;
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "HELLO";
    case FrameType::kHelloAck:
      return "HELLO-ACK";
    case FrameType::kQuery:
      return "QUERY";
    case FrameType::kRowBatch:
      return "ROW-BATCH";
    case FrameType::kAggregate:
      return "AGGREGATE";
    case FrameType::kReport:
      return "REPORT";
    case FrameType::kError:
      return "ERROR";
    case FrameType::kCancel:
      return "CANCEL";
    case FrameType::kGoodbye:
      return "GOODBYE";
    case FrameType::kPing:
      return "PING";
    case FrameType::kPong:
      return "PONG";
    case FrameType::kStatus:
      return "STATUS";
  }
  return "unknown";
}

namespace {

/// Resumable Fletcher-16 with the customary 255 modulus, deferred so the
/// sums are reduced once per block rather than once per byte.
/// Resumability lets the frame checksum chain the 6-byte header prefix
/// and the payload without concatenating.
struct Fletcher16 {
  uint32_t sum1 = 0;
  uint32_t sum2 = 0;

  void Mix(const char* data, size_t n) {
    size_t i = 0;
#if defined(__SSE2__)
    i = MixChunks(data, n);
#endif
    while (i < n) {
      // 5802 iterations is the largest block that cannot overflow u32
      // (both sums enter each block already reduced below 255).
      const size_t block = n - i < 5802 ? n - i : 5802;
      for (size_t end = i + block; i < end; ++i) {
        sum1 += static_cast<unsigned char>(data[i]);
        sum2 += sum1;
      }
      sum1 %= 255;
      sum2 %= 255;
    }
  }

#if defined(__SSE2__)
  /// Mixes the whole 16-byte chunks of `data` and returns how many bytes
  /// that consumed; the byte loop takes the tail. Across one chunk
  /// d[0..15], sum1 grows by the byte sum and sum2 by 16 * sum1 plus the
  /// byte sum weighted 16..1. Over K chunks, the 16 * sum1 terms add up
  /// to 16 * (K * sum1 + the running byte sum before each chunk), so the
  /// lanes keep three sums: bytes, the running-sum prefix, and the
  /// weighted bytes. They are folded into sum1/sum2 and reduced mod 255
  /// every kBlockChunks chunks, which keeps every lane far from
  /// overflow (the weighted u32 lanes gain at most 11730 per chunk).
  size_t MixChunks(const char* data, size_t n) {
    constexpr size_t kBlockChunks = 4096;
    const __m128i zero = _mm_setzero_si128();
    const __m128i weights_lo = _mm_setr_epi16(16, 15, 14, 13, 12, 11, 10, 9);
    const __m128i weights_hi = _mm_setr_epi16(8, 7, 6, 5, 4, 3, 2, 1);
    const size_t chunks = n / 16;
    size_t done = 0;
    while (done < chunks) {
      const size_t block =
          chunks - done < kBlockChunks ? chunks - done : kBlockChunks;
      __m128i bytes = zero;     // 2 x u64: byte sums
      __m128i prefix = zero;    // 2 x u64: byte sums before each chunk
      __m128i weighted = zero;  // 4 x u32: bytes weighted 16..1
      for (size_t c = 0; c < block; ++c) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(data + (done + c) * 16));
        prefix = _mm_add_epi64(prefix, bytes);
        bytes = _mm_add_epi64(bytes, _mm_sad_epu8(v, zero));
        weighted = _mm_add_epi32(
            weighted,
            _mm_madd_epi16(_mm_unpacklo_epi8(v, zero), weights_lo));
        weighted = _mm_add_epi32(
            weighted,
            _mm_madd_epi16(_mm_unpackhi_epi8(v, zero), weights_hi));
      }
      uint64_t lanes64[2];
      uint32_t lanes32[4];
      _mm_storeu_si128(reinterpret_cast<__m128i*>(lanes64), bytes);
      const uint64_t byte_sum = lanes64[0] + lanes64[1];
      _mm_storeu_si128(reinterpret_cast<__m128i*>(lanes64), prefix);
      const uint64_t prefix_sum = lanes64[0] + lanes64[1];
      _mm_storeu_si128(reinterpret_cast<__m128i*>(lanes32), weighted);
      const uint64_t weighted_sum = static_cast<uint64_t>(lanes32[0]) +
                                    lanes32[1] + lanes32[2] + lanes32[3];
      sum2 = static_cast<uint32_t>(
          (sum2 + 16 * (block * sum1 + prefix_sum) + weighted_sum) % 255);
      sum1 = static_cast<uint32_t>((sum1 + byte_sum) % 255);
      done += block;
    }
    return chunks * 16;
  }
#endif

  uint16_t Take() const {
    return static_cast<uint16_t>((sum2 << 8) | sum1);
  }
};

}  // namespace

uint16_t FrameChecksum(const char* data, size_t n) {
  Fletcher16 fletcher;
  fletcher.Mix(data, n);
  return fletcher.Take();
}

uint16_t FrameChecksum(FrameType type, const char* payload, size_t n) {
  // The prefix is the header's six non-checksum bytes exactly as
  // EncodeFrameHeader lays them out, so any flipped header bit — length,
  // version, or type — breaks the checksum just like payload damage.
  char prefix[6];
  StoreU32Le(static_cast<uint32_t>(n), prefix);
  prefix[4] = static_cast<char>(kWireVersion);
  prefix[5] = static_cast<char>(type);
  Fletcher16 fletcher;
  fletcher.Mix(prefix, sizeof(prefix));
  fletcher.Mix(payload, n);
  return fletcher.Take();
}

Status VerifyFramePayload(const FrameHeader& header,
                          const std::string& payload) {
  // Reconstruct the prefix from the header EXACTLY as received (not
  // from payload.size()): a flipped length or type bit then breaks the
  // match even though the payload bytes themselves arrived intact.
  char prefix[6];
  StoreU32Le(header.payload_length, prefix);
  prefix[4] = static_cast<char>(header.version);
  prefix[5] = static_cast<char>(header.type);
  Fletcher16 fletcher;
  fletcher.Mix(prefix, sizeof(prefix));
  fletcher.Mix(payload.data(), payload.size());
  if (fletcher.Take() != header.checksum) {
    return Status::FrameCorrupt(
        std::string("corrupt ") + FrameTypeName(header.type) +
        " frame: header/payload checksum mismatch");
  }
  return Status::OK();
}

void EncodeFrameHeader(const FrameHeader& header, char* out) {
  StoreU32Le(header.payload_length, out);
  out[4] = static_cast<char>(header.version);
  out[5] = static_cast<char>(header.type);
  out[6] = static_cast<char>(header.checksum & 0xff);
  out[7] = static_cast<char>((header.checksum >> 8) & 0xff);
}

Result<FrameHeader> DecodeFrameHeader(const char* data,
                                      uint32_t max_frame_bytes) {
  FrameHeader header;
  header.payload_length = LoadU32Le(data);
  header.version = static_cast<uint8_t>(data[4]);
  const uint8_t type = static_cast<uint8_t>(data[5]);
  if (header.version != kWireVersion) {
    return Status::InvalidArgument(
        "unsupported wire version " + std::to_string(header.version) +
        " (this server speaks version " + std::to_string(kWireVersion) + ")");
  }
  if (!KnownFrameType(type)) {
    return Status::InvalidArgument("unknown frame type " +
                                   std::to_string(type));
  }
  header.checksum = static_cast<uint16_t>(
      static_cast<unsigned char>(data[6]) |
      static_cast<unsigned char>(data[7]) << 8);
  if (header.payload_length > max_frame_bytes) {
    return Status::InvalidArgument(
        "oversized frame: " + std::to_string(header.payload_length) +
        " byte payload exceeds the " + std::to_string(max_frame_bytes) +
        " byte limit");
  }
  header.type = static_cast<FrameType>(type);
  return header;
}

void AppendFrame(FrameType type, const std::string& payload,
                 std::string* out) {
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(
      {static_cast<uint32_t>(payload.size()), kWireVersion, type,
       FrameChecksum(type, payload.data(), payload.size())},
      header);
  out->append(header, kFrameHeaderBytes);
  out->append(payload);
}

void SealFrame(FrameType type, std::string* frame) {
  const size_t n = frame->size() - kFrameHeaderBytes;
  const char* payload = frame->data() + kFrameHeaderBytes;
  EncodeFrameHeader({static_cast<uint32_t>(n), kWireVersion, type,
                     FrameChecksum(type, payload, n)},
                    frame->data());
}

std::string EncodeHello(const HelloFrame& hello) {
  WireWriter w;
  w.String(hello.service_class);
  return w.Take();
}

Result<HelloFrame> DecodeHello(const std::string& payload) {
  WireReader r(payload);
  HelloFrame hello;
  hello.service_class = r.String();
  if (!r.Exhausted()) return Malformed("HELLO");
  return hello;
}

std::string EncodeHelloAck(const HelloAckFrame& ack) {
  WireWriter w;
  w.U32(ack.max_frame_bytes);
  w.U32(ack.rows_per_batch);
  w.String(ack.resolved_service_class);
  return w.Take();
}

Result<HelloAckFrame> DecodeHelloAck(const std::string& payload) {
  WireReader r(payload);
  HelloAckFrame ack;
  ack.max_frame_bytes = r.U32();
  ack.rows_per_batch = r.U32();
  ack.resolved_service_class = r.String();
  if (!r.Exhausted()) return Malformed("HELLO-ACK");
  return ack;
}

std::string EncodeQuery(const QueryFrame& query) {
  WireWriter w;
  w.String(query.sparql);
  w.F64(query.timeout_seconds);
  w.I64(query.row_budget);
  return w.Take();
}

Result<QueryFrame> DecodeQuery(const std::string& payload) {
  WireReader r(payload);
  QueryFrame query;
  query.sparql = r.String();
  query.timeout_seconds = r.F64();
  query.row_budget = r.I64();
  if (!r.Exhausted()) return Malformed("QUERY");
  return query;
}

void EncodeRowBatchHeader(uint32_t width, uint32_t rows, char* out) {
  StoreU32Le(width, out);
  StoreU32Le(rows, out + 4);
}

std::string EncodeRowBatch(const RowBatchFrame& batch) {
  std::string payload(kRowBatchHeaderBytes, '\0');
  EncodeRowBatchHeader(batch.width, static_cast<uint32_t>(batch.rows()),
                       payload.data());
  payload.append(reinterpret_cast<const char*>(batch.data.data()),
                 batch.data.size() * sizeof(NodeId));
  return payload;
}

Result<RowBatchFrame> DecodeRowBatch(const std::string& payload) {
  if (payload.size() < kRowBatchHeaderBytes) return Malformed("ROW-BATCH");
  RowBatchFrame batch;
  batch.width = LoadU32Le(payload.data());
  const uint32_t rows = LoadU32Le(payload.data() + 4);
  if (batch.width == 0) return Malformed("ROW-BATCH");
  // Bound the row count by what the payload can hold BEFORE multiplying:
  // rows x width x 4 can wrap size_t, and a wrapped size that happened
  // to match would turn the resize below into a huge allocation.
  const size_t row_bytes = static_cast<size_t>(batch.width) * sizeof(NodeId);
  const size_t body = payload.size() - kRowBatchHeaderBytes;
  if (rows > body / row_bytes || body != rows * row_bytes) {
    return Malformed("ROW-BATCH");
  }
  batch.data.resize(static_cast<size_t>(rows) * batch.width);
  if (body > 0) {
    std::memcpy(batch.data.data(), payload.data() + kRowBatchHeaderBytes,
                body);
  }
  return batch;
}

std::string EncodeAggregate(const AggregateResult& result) {
  WireWriter w;
  w.U8(static_cast<uint8_t>(result.kind));
  WriteAggregateValue(&w, result.value);
  w.U8(result.ask ? 1 : 0);
  w.U8(result.factorized ? 1 : 0);
  w.String(result.fallback_reason);
  w.U32(static_cast<uint32_t>(result.groups.size()));
  for (const AggregateGroup& group : result.groups) {
    w.U32(group.key);
    WriteAggregateValue(&w, group.value);
  }
  return w.Take();
}

Result<AggregateResult> DecodeAggregate(const std::string& payload) {
  WireReader r(payload);
  AggregateResult result;
  result.kind = static_cast<AggregateKind>(r.U8());
  result.value = ReadAggregateValue(&r);
  result.ask = r.U8() != 0;
  result.factorized = r.U8() != 0;
  result.fallback_reason = r.String();
  const uint32_t groups = r.U32();
  // Cap preflight: each group costs 21 payload bytes, so a hostile count
  // cannot drive the reserve below past the actual payload size.
  if (r.failed() || static_cast<uint64_t>(groups) * 21 > payload.size()) {
    return Malformed("AGGREGATE");
  }
  result.groups.reserve(groups);
  for (uint32_t i = 0; i < groups; ++i) {
    AggregateGroup group;
    group.key = r.U32();
    group.value = ReadAggregateValue(&r);
    result.groups.push_back(group);
  }
  if (!r.Exhausted()) return Malformed("AGGREGATE");
  return result;
}

std::string EncodeReport(const runtime::QueryReport& report) {
  WireWriter w;
  w.U64(report.index);
  w.U8(static_cast<uint8_t>(report.outcome));
  w.U8(report.admitted ? 1 : 0);
  w.U8(report.cache_hit ? 1 : 0);
  w.U8(report.has_aggregate ? 1 : 0);
  w.U8(static_cast<uint8_t>(report.status.code()));
  w.String(report.status.message());
  w.String(report.service_class);
  w.U64(report.rows);
  w.F64(report.queue_seconds);
  w.F64(report.run_seconds);
  w.U32(report.retry_after_ms);
  w.U64(report.stats.output_tuples);
  w.U64(report.stats.ag_pairs);
  w.U64(report.stats.edge_walks);
  w.U64(report.stats.pairs_burned);
  w.F64(report.stats.seconds);
  w.F64(report.stats.phase1_seconds);
  w.F64(report.stats.burnback_seconds);
  w.F64(report.stats.freeze_seconds);
  w.F64(report.stats.phase2_seconds);
  w.F64(report.stats.aggregate_seconds);
  return w.Take();
}

Result<runtime::QueryReport> DecodeReport(const std::string& payload) {
  WireReader r(payload);
  runtime::QueryReport report;
  report.index = r.U64();
  const uint8_t outcome = r.U8();
  if (outcome > static_cast<uint8_t>(runtime::QueryOutcome::kFailed)) {
    return Malformed("REPORT");
  }
  report.outcome = static_cast<runtime::QueryOutcome>(outcome);
  report.admitted = r.U8() != 0;
  report.cache_hit = r.U8() != 0;
  report.has_aggregate = r.U8() != 0;
  const uint8_t code = r.U8();
  if (!KnownStatusCode(code)) return Malformed("REPORT");
  std::string message = r.String();
  report.status = Status(static_cast<StatusCode>(code), std::move(message));
  report.service_class = r.String();
  report.rows = r.U64();
  report.queue_seconds = r.F64();
  report.run_seconds = r.F64();
  report.retry_after_ms = r.U32();
  report.stats.output_tuples = r.U64();
  report.stats.ag_pairs = r.U64();
  report.stats.edge_walks = r.U64();
  report.stats.pairs_burned = r.U64();
  report.stats.seconds = r.F64();
  report.stats.phase1_seconds = r.F64();
  report.stats.burnback_seconds = r.F64();
  report.stats.freeze_seconds = r.F64();
  report.stats.phase2_seconds = r.F64();
  report.stats.aggregate_seconds = r.F64();
  if (!r.Exhausted()) return Malformed("REPORT");
  return report;
}

std::string EncodeStatus(const StatusFrame& status) {
  WireWriter w;
  w.U32(status.running);
  w.U32(status.queued);
  w.U32(status.max_inflight);
  w.U32(status.max_queued);
  w.U8(status.overloaded);
  w.U32(status.retry_after_ms);
  w.U32(static_cast<uint32_t>(status.tenants.size()));
  for (const TenantLoadFrame& tenant : status.tenants) {
    w.String(tenant.name);
    w.U32(tenant.weight);
    w.U32(tenant.running);
    w.U32(tenant.queued);
    w.U64(tenant.completed);
    w.U64(tenant.shed);
    w.U64(tenant.brownout_rejected);
  }
  return w.Take();
}

Result<StatusFrame> DecodeStatus(const std::string& payload) {
  WireReader r(payload);
  StatusFrame status;
  status.running = r.U32();
  status.queued = r.U32();
  status.max_inflight = r.U32();
  status.max_queued = r.U32();
  status.overloaded = r.U8();
  status.retry_after_ms = r.U32();
  const uint32_t tenants = r.U32();
  // Cap preflight, same discipline as DecodeAggregate: each tenant
  // costs at least 40 payload bytes, so a hostile count cannot drive
  // the reserve below past the actual payload size.
  if (r.failed() || static_cast<uint64_t>(tenants) * 40 > payload.size()) {
    return Malformed("STATUS");
  }
  status.tenants.reserve(tenants);
  for (uint32_t i = 0; i < tenants; ++i) {
    TenantLoadFrame tenant;
    tenant.name = r.String();
    tenant.weight = r.U32();
    tenant.running = r.U32();
    tenant.queued = r.U32();
    tenant.completed = r.U64();
    tenant.shed = r.U64();
    tenant.brownout_rejected = r.U64();
    status.tenants.push_back(std::move(tenant));
  }
  if (!r.Exhausted()) return Malformed("STATUS");
  return status;
}

std::string EncodeError(const ErrorFrame& error) {
  WireWriter w;
  w.U8(static_cast<uint8_t>(error.code));
  w.String(error.message);
  return w.Take();
}

Result<ErrorFrame> DecodeError(const std::string& payload) {
  WireReader r(payload);
  ErrorFrame error;
  const uint8_t code = r.U8();
  if (!KnownStatusCode(code)) return Malformed("ERROR");
  error.code = static_cast<StatusCode>(code);
  error.message = r.String();
  if (!r.Exhausted()) return Malformed("ERROR");
  return error;
}

}  // namespace net
}  // namespace wireframe
