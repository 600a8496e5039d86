// Frame protocol round-trips and rejection paths of net/wire.h. Every
// decoder must (a) reproduce what the encoder wrote bit-exactly,
// (b) reject truncated payloads, and (c) reject trailing garbage —
// a frame that does not parse EXACTLY is malformed, full stop.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/wire.h"

namespace wireframe {
namespace net {
namespace {

TEST(WireHeader, RoundTrip) {
  FrameHeader header;
  header.payload_length = 12345;
  header.type = FrameType::kRowBatch;
  char bytes[kFrameHeaderBytes];
  EncodeFrameHeader(header, bytes);
  auto decoded = DecodeFrameHeader(bytes, kDefaultMaxFrameBytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->payload_length, 12345u);
  EXPECT_EQ(decoded->version, kWireVersion);
  EXPECT_EQ(decoded->type, FrameType::kRowBatch);
}

TEST(WireHeader, RejectsBadVersion) {
  FrameHeader header;
  header.type = FrameType::kQuery;
  char bytes[kFrameHeaderBytes];
  EncodeFrameHeader(header, bytes);
  bytes[4] = 99;
  auto decoded = DecodeFrameHeader(bytes, kDefaultMaxFrameBytes);
  EXPECT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument());
}

TEST(WireHeader, RejectsUnknownType) {
  FrameHeader header;
  header.type = FrameType::kQuery;
  char bytes[kFrameHeaderBytes];
  EncodeFrameHeader(header, bytes);
  bytes[5] = 0;  // below kHello
  EXPECT_FALSE(DecodeFrameHeader(bytes, kDefaultMaxFrameBytes).ok());
  bytes[5] = 42;  // above kGoodbye
  EXPECT_FALSE(DecodeFrameHeader(bytes, kDefaultMaxFrameBytes).ok());
}

TEST(WireHeader, ChecksumDetectsAnySingleBitFlip) {
  const std::string payload = "select * where { ?x p ?y . }";
  std::string frame;
  AppendFrame(FrameType::kQuery, payload, &frame);
  auto header = DecodeFrameHeader(frame.data(), kDefaultMaxFrameBytes);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->checksum,
            FrameChecksum(FrameType::kQuery, payload.data(),
                          payload.size()));
  EXPECT_TRUE(VerifyFramePayload(*header, payload).ok());
  // Every single-bit corruption of the payload must be caught — this is
  // what keeps a flipped bit in a QUERY from running as a different,
  // still-valid query.
  for (size_t byte = 0; byte < payload.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = payload;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      const Status status = VerifyFramePayload(*header, corrupt);
      ASSERT_FALSE(status.ok()) << "byte " << byte << " bit " << bit;
      EXPECT_TRUE(status.IsFrameCorrupt());
    }
  }
}

TEST(WireHeader, ChecksumDetectsAnyHeaderBitFlip) {
  // The checksum covers the six non-checksum header bytes too, so a
  // flipped type/length/version bit can never turn one valid frame into
  // a different valid one (HELLO must not arrive as AGGREGATE). Every
  // header corruption must fail typed: either the decode rejects it
  // outright (bad version / unknown type / oversize — readers wrap that
  // as kFrameCorrupt) or the checksum verify does.
  const std::string payload = "select * where { ?x p ?y . }";
  std::string frame;
  AppendFrame(FrameType::kHello, payload, &frame);
  for (size_t byte = 0; byte < 6; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = frame;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      auto header = DecodeFrameHeader(corrupt.data(),
                                      kDefaultMaxFrameBytes);
      if (!header.ok()) continue;  // rejected before the payload: fine
      const Status status = VerifyFramePayload(*header, payload);
      ASSERT_FALSE(status.ok()) << "byte " << byte << " bit " << bit;
      EXPECT_TRUE(status.IsFrameCorrupt());
    }
  }
}

/// The checksum's definition, one byte at a time with a reduction on
/// every step. FrameChecksum's faster paths must agree with it on every
/// input.
uint16_t ReferenceFletcher16(const std::string& bytes) {
  uint32_t sum1 = 0;
  uint32_t sum2 = 0;
  for (const char c : bytes) {
    sum1 = (sum1 + static_cast<unsigned char>(c)) % 255;
    sum2 = (sum2 + sum1) % 255;
  }
  return static_cast<uint16_t>(sum2 << 8 | sum1);
}

/// Deterministic filler bytes covering the whole 0..255 range.
std::string PseudoRandomBytes(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng() & 0xff);
  return bytes;
}

TEST(WireChecksum, KnownValues) {
  // Textbook Fletcher-16 (mod 255) values.
  EXPECT_EQ(FrameChecksum("abcde", 5), 0xC8F0);
  EXPECT_EQ(FrameChecksum("abcdef", 6), 0x2057);
  EXPECT_EQ(FrameChecksum("abcdefgh", 8), 0x0627);
  EXPECT_EQ(FrameChecksum(nullptr, 0), 0);
}

TEST(WireChecksum, MatchesTheByteLoopAtEveryLengthAndAlignment) {
  const std::string bytes = PseudoRandomBytes(300 + 16, 7);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t n = 0; n <= 300; ++n) {
      ASSERT_EQ(FrameChecksum(bytes.data() + offset, n),
                ReferenceFletcher16(bytes.substr(offset, n)))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(WireChecksum, ChainedPrefixAndPayloadMatchTheByteLoop) {
  // FrameChecksum(type, ...) mixes the 6-byte header prefix and then
  // the payload; the payload's chunked path starts from nonzero sums.
  // Lengths straddle the 16-byte chunk and the 4096-chunk reduction
  // block.
  for (size_t n : {0, 1, 15, 16, 17, 255, 65535, 65536, 65537, 196649}) {
    const std::string payload = PseudoRandomBytes(n, n + 1);
    std::string prefixed(6, '\0');
    prefixed[0] = static_cast<char>(n & 0xff);
    prefixed[1] = static_cast<char>((n >> 8) & 0xff);
    prefixed[2] = static_cast<char>((n >> 16) & 0xff);
    prefixed[3] = static_cast<char>((n >> 24) & 0xff);
    prefixed[4] = static_cast<char>(kWireVersion);
    prefixed[5] = static_cast<char>(FrameType::kRowBatch);
    prefixed += payload;
    EXPECT_EQ(FrameChecksum(FrameType::kRowBatch, payload.data(), n),
              ReferenceFletcher16(prefixed))
        << "payload length " << n;
  }
}

TEST(WireChecksum, AllOnesMaxFrameMatchesTheByteLoop) {
  // 0xFF everywhere drives every lane sum to its ceiling: the worst case
  // for overflow between reductions, at the largest legal frame.
  const std::string payload(kDefaultMaxFrameBytes, '\xff');
  EXPECT_EQ(FrameChecksum(payload.data(), payload.size()),
            ReferenceFletcher16(payload));
}

TEST(WireHeader, EmptyPayloadStillChecksumsTheHeader) {
  // Even a payload-less frame carries a nonzero checksum: the six
  // header prefix bytes are covered, so a flipped PING type byte is
  // caught too.
  std::string frame;
  AppendFrame(FrameType::kPing, std::string(), &frame);
  auto header = DecodeFrameHeader(frame.data(), kDefaultMaxFrameBytes);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->checksum,
            FrameChecksum(FrameType::kPing, nullptr, 0));
  EXPECT_NE(header->checksum, 0u);
  EXPECT_TRUE(VerifyFramePayload(*header, std::string()).ok());
}

TEST(WireHeader, RejectsOversizedPayloadBeforeReadingIt) {
  FrameHeader header;
  header.payload_length = 0xffffffff;  // hostile length prefix
  header.type = FrameType::kQuery;
  char bytes[kFrameHeaderBytes];
  EncodeFrameHeader(header, bytes);
  auto decoded = DecodeFrameHeader(bytes, kDefaultMaxFrameBytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument());
  // The limit is named so clients can tell oversize from corruption.
  EXPECT_NE(decoded.status().message().find(
                std::to_string(kDefaultMaxFrameBytes)),
            std::string::npos)
      << decoded.status().ToString();
  // Exactly at the cap is fine.
  header.payload_length = kDefaultMaxFrameBytes;
  EncodeFrameHeader(header, bytes);
  EXPECT_TRUE(DecodeFrameHeader(bytes, kDefaultMaxFrameBytes).ok());
}

TEST(WireFrames, HelloRoundTrip) {
  auto decoded = DecodeHello(EncodeHello({"latency"}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->service_class, "latency");
  EXPECT_TRUE(DecodeHello(EncodeHello({""}))->service_class.empty());
}

TEST(WireFrames, HelloAckRoundTrip) {
  HelloAckFrame ack;
  ack.max_frame_bytes = 777;
  ack.rows_per_batch = 256;
  ack.resolved_service_class = "default";
  auto decoded = DecodeHelloAck(EncodeHelloAck(ack));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->max_frame_bytes, 777u);
  EXPECT_EQ(decoded->rows_per_batch, 256u);
  EXPECT_EQ(decoded->resolved_service_class, "default");
}

TEST(WireFrames, QueryRoundTrip) {
  QueryFrame query;
  query.sparql = "select * where { ?x p ?y . }";
  query.timeout_seconds = 2.5;
  query.row_budget = 1000;
  auto decoded = DecodeQuery(EncodeQuery(query));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->sparql, query.sparql);
  EXPECT_EQ(decoded->timeout_seconds, 2.5);
  EXPECT_EQ(decoded->row_budget, 1000);
  // The inherit sentinels survive the trip too.
  QueryFrame inherit;
  inherit.sparql = "q";
  auto sentinel = DecodeQuery(EncodeQuery(inherit));
  ASSERT_TRUE(sentinel.ok());
  EXPECT_LT(sentinel->timeout_seconds, 0.0);
  EXPECT_LT(sentinel->row_budget, 0);
}

TEST(WireFrames, RowBatchRoundTrip) {
  RowBatchFrame batch;
  batch.width = 3;
  batch.data = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto decoded = DecodeRowBatch(EncodeRowBatch(batch));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->width, 3u);
  EXPECT_EQ(decoded->rows(), 3u);
  EXPECT_EQ(decoded->data, batch.data);
}

TEST(WireFrames, RowBatchRejectsSizeMismatch) {
  RowBatchFrame batch;
  batch.width = 3;
  batch.data = {1, 2, 3, 4, 5, 6};
  std::string payload = EncodeRowBatch(batch);
  payload.resize(payload.size() - 1);  // truncate one byte
  EXPECT_FALSE(DecodeRowBatch(payload).ok());
  EXPECT_FALSE(DecodeRowBatch(std::string()).ok());

  // Hostile width x rows products: 2^31 x 2^31 x 4 wraps size_t to 0,
  // so an 8-byte payload used to pass the size check and throw from a
  // 2^62-element resize. Every such header must be plain malformed.
  for (uint32_t width : {1u, 2u, 3u, 1u << 30, 1u << 31, 0xffffffffu}) {
    for (uint32_t rows : {1u, 2u, 1u << 30, 1u << 31, 0xffffffffu}) {
      for (uint64_t body : {0, 4, 24}) {
        const uint64_t row_bytes = uint64_t{4} * width;
        if (body % row_bytes == 0 && body / row_bytes == rows) continue;
        std::string hostile(kRowBatchHeaderBytes + body, '\0');
        EncodeRowBatchHeader(width, rows, hostile.data());
        auto decoded = DecodeRowBatch(hostile);
        ASSERT_FALSE(decoded.ok())
            << "width " << width << " rows " << rows << " body " << body;
        EXPECT_TRUE(decoded.status().IsParseError());
      }
    }
  }
}

TEST(WireFrames, SealFrameMatchesAppendFrame) {
  for (const std::string& payload :
       {std::string(), std::string("abc"), std::string(1000, '\xab')}) {
    std::string appended;
    AppendFrame(FrameType::kRowBatch, payload, &appended);
    std::string sealed(kFrameHeaderBytes, '\0');
    sealed += payload;
    SealFrame(FrameType::kRowBatch, &sealed);
    EXPECT_EQ(sealed, appended) << payload.size() << "-byte payload";
  }
}

TEST(WireFrames, AggregateRoundTrip) {
  AggregateResult result;
  result.kind = AggregateKind::kCount;
  result.value = {123456789, 42, false};
  result.factorized = true;
  result.groups = {{7, AggregateValue::FromU64(10)},
                   {9, AggregateValue::FromU64(32)}};
  auto decoded = DecodeAggregate(EncodeAggregate(result));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, AggregateKind::kCount);
  EXPECT_EQ(decoded->value, result.value);
  EXPECT_TRUE(decoded->factorized);
  EXPECT_EQ(decoded->groups, result.groups);

  AggregateResult ask;
  ask.kind = AggregateKind::kAsk;
  ask.ask = true;
  ask.fallback_reason = "cyclic shape";
  auto ask_decoded = DecodeAggregate(EncodeAggregate(ask));
  ASSERT_TRUE(ask_decoded.ok());
  EXPECT_TRUE(ask_decoded->ask);
  EXPECT_EQ(ask_decoded->fallback_reason, "cyclic shape");
}

TEST(WireFrames, AggregateRejectsHostileGroupCount) {
  // A group count far past the payload size must fail the preflight,
  // not drive a giant reserve().
  AggregateResult result;
  result.kind = AggregateKind::kCount;
  std::string payload = EncodeAggregate(result);
  payload[payload.size() - 4] = '\xff';
  payload[payload.size() - 3] = '\xff';
  payload[payload.size() - 2] = '\xff';
  payload[payload.size() - 1] = '\x7f';
  EXPECT_FALSE(DecodeAggregate(payload).ok());
}

TEST(WireFrames, ReportRoundTrip) {
  runtime::QueryReport report;
  report.index = 4;
  report.service_class = "batch";
  report.admitted = true;
  report.outcome = runtime::QueryOutcome::kTimedOut;
  report.status = Status::TimedOut("budget spent");
  report.cache_hit = true;
  report.rows = 4242;
  report.queue_seconds = 0.25;
  report.run_seconds = 1.5;
  report.retry_after_ms = 250;
  report.stats.output_tuples = 4242;
  report.stats.ag_pairs = 99;
  report.stats.phase1_seconds = 0.5;
  auto decoded = DecodeReport(EncodeReport(report));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->index, 4u);
  EXPECT_EQ(decoded->service_class, "batch");
  EXPECT_TRUE(decoded->admitted);
  EXPECT_EQ(decoded->outcome, runtime::QueryOutcome::kTimedOut);
  EXPECT_TRUE(decoded->status.IsTimedOut());
  EXPECT_EQ(decoded->status.message(), "budget spent");
  EXPECT_TRUE(decoded->cache_hit);
  EXPECT_EQ(decoded->rows, 4242u);
  EXPECT_EQ(decoded->queue_seconds, 0.25);
  EXPECT_EQ(decoded->run_seconds, 1.5);
  EXPECT_EQ(decoded->retry_after_ms, 250u);
  EXPECT_EQ(decoded->stats.output_tuples, 4242u);
  EXPECT_EQ(decoded->stats.ag_pairs, 99u);
  EXPECT_EQ(decoded->stats.phase1_seconds, 0.5);
}

TEST(WireFrames, ErrorRoundTrip) {
  ErrorFrame error;
  error.code = StatusCode::kResourceExhausted;
  error.message = "runtime saturated";
  auto decoded = DecodeError(EncodeError(error));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, StatusCode::kResourceExhausted);
  EXPECT_TRUE(decoded->ToStatus().IsResourceExhausted());
  EXPECT_EQ(decoded->ToStatus().message(), "runtime saturated");
}

TEST(WireFrames, StatusRoundTrip) {
  StatusFrame status;
  status.running = 3;
  status.queued = 17;
  status.max_inflight = 4;
  status.max_queued = 32;
  status.overloaded = 1;
  status.retry_after_ms = 250;
  TenantLoadFrame latency;
  latency.name = "latency";
  latency.weight = 8;
  latency.running = 2;
  latency.queued = 5;
  latency.completed = 1000;
  latency.shed = 7;
  latency.brownout_rejected = 3;
  status.tenants.push_back(latency);
  status.tenants.push_back(TenantLoadFrame{});
  auto decoded = DecodeStatus(EncodeStatus(status));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->running, 3u);
  EXPECT_EQ(decoded->queued, 17u);
  EXPECT_EQ(decoded->max_inflight, 4u);
  EXPECT_EQ(decoded->max_queued, 32u);
  EXPECT_EQ(decoded->overloaded, 1u);
  EXPECT_EQ(decoded->retry_after_ms, 250u);
  ASSERT_EQ(decoded->tenants.size(), 2u);
  EXPECT_EQ(decoded->tenants[0].name, "latency");
  EXPECT_EQ(decoded->tenants[0].weight, 8u);
  EXPECT_EQ(decoded->tenants[0].running, 2u);
  EXPECT_EQ(decoded->tenants[0].queued, 5u);
  EXPECT_EQ(decoded->tenants[0].completed, 1000u);
  EXPECT_EQ(decoded->tenants[0].shed, 7u);
  EXPECT_EQ(decoded->tenants[0].brownout_rejected, 3u);
  EXPECT_TRUE(decoded->tenants[1].name.empty());
}

TEST(WireFrames, StatusRejectsHostileTenantCount) {
  StatusFrame status;
  std::string payload = EncodeStatus(status);
  // The tenant count is the last u32 before the (empty) tenant list.
  payload[payload.size() - 4] = '\xff';
  payload[payload.size() - 3] = '\xff';
  payload[payload.size() - 2] = '\xff';
  payload[payload.size() - 1] = '\x7f';
  EXPECT_FALSE(DecodeStatus(payload).ok());
}

TEST(WireFrames, ErrorCarriesTransportStatusCodes) {
  // The new transport-layer codes must survive the wire: a client that
  // branches on kOverloaded / kFrameCorrupt needs the typed code back,
  // not a collapsed kInternal.
  for (StatusCode code :
       {StatusCode::kConnectionRefused, StatusCode::kConnectionReset,
        StatusCode::kFrameCorrupt, StatusCode::kOverloaded,
        StatusCode::kRetryExhausted, StatusCode::kStreamBroken}) {
    ErrorFrame error;
    error.code = code;
    error.message = "typed";
    auto decoded = DecodeError(EncodeError(error));
    ASSERT_TRUE(decoded.ok()) << StatusCodeName(code);
    EXPECT_EQ(decoded->code, code);
  }
}

TEST(WireFrames, TrailingGarbageIsMalformedEverywhere) {
  EXPECT_FALSE(DecodeHello(EncodeHello({"x"}) + "junk").ok());
  EXPECT_FALSE(DecodeHelloAck(EncodeHelloAck({}) + "j").ok());
  QueryFrame query;
  query.sparql = "q";
  EXPECT_FALSE(DecodeQuery(EncodeQuery(query) + "j").ok());
  AggregateResult aggregate;
  EXPECT_FALSE(DecodeAggregate(EncodeAggregate(aggregate) + "j").ok());
  runtime::QueryReport report;
  EXPECT_FALSE(DecodeReport(EncodeReport(report) + "j").ok());
  EXPECT_FALSE(DecodeError(EncodeError({}) + "j").ok());
  EXPECT_FALSE(DecodeStatus(EncodeStatus({}) + "j").ok());
}

TEST(WireFrames, TruncationIsMalformedEverywhere) {
  QueryFrame query;
  query.sparql = "select * where { ?x p ?y . }";
  const std::string full = EncodeQuery(query);
  for (size_t n = 0; n < full.size(); ++n) {
    EXPECT_FALSE(DecodeQuery(full.substr(0, n)).ok()) << "len " << n;
  }
  runtime::QueryReport report;
  report.status = Status::ParseError("x");
  const std::string report_bytes = EncodeReport(report);
  for (size_t n = 0; n < report_bytes.size(); ++n) {
    EXPECT_FALSE(DecodeReport(report_bytes.substr(0, n)).ok())
        << "len " << n;
  }
}

TEST(WireFrames, AppendFrameProducesHeaderPlusPayload) {
  std::string out;
  AppendFrame(FrameType::kQuery, "abc", &out);
  ASSERT_EQ(out.size(), kFrameHeaderBytes + 3);
  auto header = DecodeFrameHeader(out.data(), kDefaultMaxFrameBytes);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->type, FrameType::kQuery);
  EXPECT_EQ(header->payload_length, 3u);
  EXPECT_EQ(out.substr(kFrameHeaderBytes), "abc");
}

}  // namespace
}  // namespace net
}  // namespace wireframe
