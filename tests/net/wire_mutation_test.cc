// Seeded mutation test over every payload decoder of net/wire.h. Each
// decoder is fed valid payloads of its own kind after truncation,
// appended bytes, flipped bits, and u32 fields overwritten with the
// count values a hostile peer would pick (0, 1, 2^31, 2^32-1). Whatever
// the bytes, a decode must return either a value or a typed ParseError:
// never throw, never crash, never allocate past the payload. The suite
// runs under ASan+UBSan in CI, so out-of-bounds reads and undefined
// arithmetic fail it too. The seed and the iteration budget are fixed,
// so a failure reproduces exactly.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/wire.h"

namespace wireframe {
namespace net {
namespace {

struct DecoderCase {
  const char* name;
  std::function<Status(const std::string&)> decode;
  /// Valid payloads to mutate.
  std::vector<std::string> seeds;
};

template <typename DecodeFn>
std::function<Status(const std::string&)> StatusOf(DecodeFn decode) {
  return [decode](const std::string& payload) {
    return decode(payload).status();
  };
}

std::vector<DecoderCase> AllDecoders() {
  HelloAckFrame ack;
  ack.max_frame_bytes = 1u << 20;
  ack.rows_per_batch = 1024;
  ack.resolved_service_class = "latency";

  QueryFrame query;
  query.sparql = "select * where { ?x actedIn ?m . }";
  query.timeout_seconds = 2.5;
  query.row_budget = 100;

  RowBatchFrame batch;
  batch.width = 3;
  batch.data = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  RowBatchFrame single;
  single.width = 1;
  single.data = {42};

  AggregateResult aggregate;
  aggregate.kind = AggregateKind::kCount;
  aggregate.value = AggregateValue::FromU64(12345);
  aggregate.factorized = true;
  aggregate.fallback_reason = "cyclic";
  aggregate.groups = {{7, AggregateValue::FromU64(10)},
                      {9, AggregateValue::FromU64(32)}};

  runtime::QueryReport report;
  report.index = 3;
  report.outcome = runtime::QueryOutcome::kTimedOut;
  report.status = Status::TimedOut("budget spent");
  report.service_class = "batch";
  report.rows = 99;

  StatusFrame status;
  status.running = 2;
  status.queued = 5;
  TenantLoadFrame tenant;
  tenant.name = "gold";
  tenant.weight = 8;
  status.tenants = {tenant, TenantLoadFrame{}};

  ErrorFrame error;
  error.code = StatusCode::kOverloaded;
  error.message = "shed";

  return {
      {"HELLO", StatusOf(DecodeHello),
       {EncodeHello({"latency"}), EncodeHello({""})}},
      {"HELLO-ACK", StatusOf(DecodeHelloAck), {EncodeHelloAck(ack)}},
      {"QUERY", StatusOf(DecodeQuery), {EncodeQuery(query)}},
      {"ROW-BATCH", StatusOf(DecodeRowBatch),
       {EncodeRowBatch(batch), EncodeRowBatch(single)}},
      {"AGGREGATE", StatusOf(DecodeAggregate),
       {EncodeAggregate(aggregate), EncodeAggregate(AggregateResult{})}},
      {"REPORT", StatusOf(DecodeReport), {EncodeReport(report)}},
      {"STATUS", StatusOf(DecodeStatus),
       {EncodeStatus(status), EncodeStatus(StatusFrame{})}},
      {"ERROR", StatusOf(DecodeError), {EncodeError(error)}},
  };
}

constexpr uint32_t kCountValues[] = {0u, 1u, 1u << 31, 0xffffffffu};

void PutU32(std::string* bytes, size_t offset, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

/// A decode outcome the contract allows: a value or a typed ParseError.
::testing::AssertionResult Typed(const DecoderCase& decoder,
                                 const std::string& payload,
                                 const std::string& mutation) {
  const Status status = decoder.decode(payload);
  if (status.ok() || status.IsParseError()) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << decoder.name << " after " << mutation << ": "
         << status.ToString();
}

TEST(WireMutation, SeedsDecode) {
  for (const DecoderCase& decoder : AllDecoders()) {
    for (const std::string& seed : decoder.seeds) {
      EXPECT_TRUE(decoder.decode(seed).ok()) << decoder.name;
    }
  }
}

TEST(WireMutation, EveryTruncationAndAppendIsTyped) {
  for (const DecoderCase& decoder : AllDecoders()) {
    for (const std::string& seed : decoder.seeds) {
      for (size_t n = 0; n < seed.size(); ++n) {
        ASSERT_TRUE(Typed(decoder, seed.substr(0, n),
                          "truncation to " + std::to_string(n)));
      }
      for (size_t n = 1; n <= 16; ++n) {
        ASSERT_TRUE(Typed(decoder, seed + std::string(n, '\0'),
                          "appending " + std::to_string(n) + " zeros"));
        ASSERT_TRUE(Typed(decoder, seed + std::string(n, '\xff'),
                          "appending " + std::to_string(n) + " 0xff"));
      }
    }
  }
}

TEST(WireMutation, EveryU32FieldTakesHostileCounts) {
  // Every byte offset, not just the known count fields: string lengths,
  // group and tenant counts, and ROW-BATCH's width and rows all sit at
  // some offset of some seed, whatever the layout. Each overwrite is
  // tried on the whole payload and on the payload cut right after the
  // field, where a count has nothing left to describe.
  for (const DecoderCase& decoder : AllDecoders()) {
    for (const std::string& seed : decoder.seeds) {
      for (size_t offset = 0; offset + 4 <= seed.size(); ++offset) {
        for (uint32_t value : kCountValues) {
          std::string mutated = seed;
          PutU32(&mutated, offset, value);
          const std::string what = "u32 " + std::to_string(value) +
                                   " at offset " + std::to_string(offset);
          ASSERT_TRUE(Typed(decoder, mutated, what));
          mutated.resize(offset + 4);
          ASSERT_TRUE(Typed(decoder, mutated, what + ", cut after it"));
        }
      }
    }
  }
}

TEST(WireMutation, PairsOfLeadingU32FieldsTakeHostileCounts) {
  // Two counts that only overflow together (ROW-BATCH's width x rows is
  // the case in point) need both overwritten at once. Pairs range over
  // the first 32 bytes, where every decoder keeps its fixed fields.
  constexpr size_t kSpan = 32;
  for (const DecoderCase& decoder : AllDecoders()) {
    for (const std::string& seed : decoder.seeds) {
      const size_t span = std::min(seed.size(), kSpan);
      for (size_t first = 0; first + 8 <= span; ++first) {
        for (size_t second = first + 4; second + 4 <= span; ++second) {
          for (uint32_t a : kCountValues) {
            for (uint32_t b : kCountValues) {
              std::string mutated = seed;
              PutU32(&mutated, first, a);
              PutU32(&mutated, second, b);
              const std::string what =
                  "u32 " + std::to_string(a) + " at offset " +
                  std::to_string(first) + " and " + std::to_string(b) +
                  " at offset " + std::to_string(second);
              ASSERT_TRUE(Typed(decoder, mutated, what));
              mutated.resize(second + 4);
              ASSERT_TRUE(Typed(decoder, mutated, what + ", cut after"));
            }
          }
        }
      }
    }
  }
}

TEST(WireMutation, SeededRandomMutationsAreTyped) {
  // Stacked mutations: 1-8 bit flips, then maybe two hostile u32
  // fields, then maybe a truncation or an append. 2000 per seed payload
  // keeps the whole test well under a second, sanitizers included.
  constexpr int kIterations = 2000;
  std::mt19937_64 rng(20241018);
  for (const DecoderCase& decoder : AllDecoders()) {
    for (const std::string& seed : decoder.seeds) {
      for (int it = 0; it < kIterations; ++it) {
        std::string mutated = seed;
        const int flips = 1 + static_cast<int>(rng() % 8);
        for (int f = 0; f < flips && !mutated.empty(); ++f) {
          const size_t bit = rng() % (mutated.size() * 8);
          mutated[bit / 8] =
              static_cast<char>(mutated[bit / 8] ^ (1 << (bit % 8)));
        }
        if (rng() % 2 == 0 && mutated.size() >= 4) {
          for (int field = 0; field < 2; ++field) {
            PutU32(&mutated, rng() % (mutated.size() - 3),
                   kCountValues[rng() % 4]);
          }
        }
        switch (rng() % 4) {
          case 0:
            mutated.resize(rng() % (mutated.size() + 1));
            break;
          case 1:
            for (uint64_t n = 1 + rng() % 8; n > 0; --n) {
              mutated.push_back(static_cast<char>(rng() & 0xff));
            }
            break;
          default:
            break;
        }
        ASSERT_TRUE(Typed(decoder, mutated,
                          "random mutation " + std::to_string(it)));
      }
    }
  }
}

}  // namespace
}  // namespace net
}  // namespace wireframe
