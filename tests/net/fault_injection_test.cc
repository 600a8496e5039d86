// The deterministic fault plane of net/fault_injection.h, driven
// through real loopback connections: partial writes, headers split
// across reads, flipped bits, blackholes, and mid-frame disconnects.
// The invariant under test is the chaos contract — under ANY injected
// fault a query either completes bit-identical to the fault-free run or
// fails with a typed transport error; never a hang, never a wrong row.
// SMOKE: the TSan job runs these — the injector is shared between a
// connection's reader and writer threads.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "datagen/synthetic.h"
#include "datagen/yago_like.h"
#include "net/client.h"
#include "net/fault_injection.h"
#include "net/server.h"
#include "net/wire.h"
#include "runtime/server.h"

namespace wireframe {
namespace net {
namespace {

std::vector<std::vector<NodeId>> Sorted(
    std::vector<std::vector<NodeId>> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(FaultSchedule, RandomIsDeterministicAndCoversEveryOp) {
  std::string sweep;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    const FaultSchedule a = FaultSchedule::Random(seed);
    const FaultSchedule b = FaultSchedule::Random(seed);
    ASSERT_FALSE(a.actions.empty()) << "seed " << seed;
    ASSERT_LE(a.actions.size(), 4u);
    EXPECT_EQ(a.ToString(), b.ToString()) << "seed " << seed;
    sweep += a.ToString();
  }
  // Across a modest sweep every op must appear, or the chaos driver
  // would silently stop exercising whole fault classes.
  for (FaultOp op : {FaultOp::kDelay, FaultOp::kBitFlip, FaultOp::kShortIo,
                     FaultOp::kBlackhole, FaultOp::kClose, FaultOp::kReset}) {
    EXPECT_NE(sweep.find(FaultOpName(op)), std::string::npos)
        << FaultOpName(op);
  }
}

/// Small YAGO-like store behind a socket server, with a fault-free
/// baseline run to compare every faulted stream against.
class FaultNetTest : public ::testing::Test {
 protected:
  FaultNetTest()
      : db_(MakeYagoLike({.scale = 0.01, .seed = 42})),
        catalog_(Catalog::Build(db_.store())) {
    server_ = std::make_unique<runtime::Server>(db_, catalog_);
    net_ = std::make_unique<SocketServer>(server_.get());
    Status started = net_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    query_ = Table1Queries()[7];
    auto clean = Client::Connect(Address());
    EXPECT_TRUE(clean.ok()) << clean.status().ToString();
    auto baseline = (*clean)->Run(query_);
    EXPECT_TRUE(baseline.ok()) << baseline.status().ToString();
    baseline_rows_ = Sorted(baseline->rows.ToVectors());
    EXPECT_FALSE(baseline_rows_.empty());
    EXPECT_TRUE((*clean)->Goodbye().ok());
  }

  std::string Address() const { return net_->address().ToString(); }

  Result<std::unique_ptr<Client>> FaultyClient(FaultInjector* injector) {
    ClientOptions options;
    options.fault_injector = injector;
    options.io_timeout_ms = 10'000;
    return Client::Connect(Address(), options);
  }

  Database db_;
  Catalog catalog_;
  std::unique_ptr<runtime::Server> server_;
  std::unique_ptr<SocketServer> net_;
  std::string query_;
  std::vector<std::vector<NodeId>> baseline_rows_;
};

TEST_F(FaultNetTest, ShortWritesStillDeliverTheFrameIntact) {
  // Client frame 1 (the QUERY) trickles out one byte per send — the
  // partial-write path of WriteAll, including a header split across
  // many sends. The server must reassemble it bit-exactly.
  FaultSchedule schedule;
  schedule.actions.push_back({FaultOp::kShortIo, FaultDirection::kWrite,
                              /*at_frame=*/1, /*at_byte=*/0,
                              /*delay_ms=*/0, /*bit_mask=*/1,
                              /*span_bytes=*/512});
  FaultInjector injector(schedule);
  auto client = FaultyClient(&injector);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto result = (*client)->Run(query_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Sorted(result->rows.ToVectors()), baseline_rows_);
  EXPECT_GT(injector.counters().short_io_spans, 0u);
  EXPECT_TRUE((*client)->Goodbye().ok());
}

TEST_F(FaultNetTest, HeadersSplitAcrossReadsStillParse) {
  // Server-to-client direction trickles through the whole handshake and
  // first result frames: every ReadExact sees 1-byte reads, so frame
  // headers arrive in up to eight pieces.
  FaultSchedule schedule;
  schedule.actions.push_back({FaultOp::kShortIo, FaultDirection::kRead,
                              /*at_frame=*/0, /*at_byte=*/0,
                              /*delay_ms=*/0, /*bit_mask=*/1,
                              /*span_bytes=*/256});
  FaultInjector injector(schedule);
  auto client = FaultyClient(&injector);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto result = (*client)->Run(query_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Sorted(result->rows.ToVectors()), baseline_rows_);
  EXPECT_TRUE((*client)->Goodbye().ok());
}

TEST_F(FaultNetTest, FlippedQueryBitIsCaughtByTheChecksum) {
  // One bit of the QUERY payload flips on the wire. Without the v2
  // checksum this could decode as a DIFFERENT valid query and return
  // wrong rows; the contract is a typed kFrameCorrupt instead.
  FaultSchedule schedule;
  schedule.actions.push_back({FaultOp::kBitFlip, FaultDirection::kWrite,
                              /*at_frame=*/1,
                              /*at_byte=*/kFrameHeaderBytes + 30,
                              /*delay_ms=*/0, /*bit_mask=*/0x08,
                              /*span_bytes=*/0});
  FaultInjector injector(schedule);
  auto client = FaultyClient(&injector);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto result = (*client)->Run(query_);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsFrameCorrupt())
      << result.status().ToString();
  EXPECT_EQ(injector.counters().bit_flips, 1u);
  EXPECT_TRUE(injector.Drained());
  // The one poisoned connection is gone, the server is fine.
  auto after = Client::Connect(Address());
  ASSERT_TRUE(after.ok());
  auto rerun = (*after)->Run(query_);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(Sorted(rerun->rows.ToVectors()), baseline_rows_);
  EXPECT_TRUE((*after)->Goodbye().ok());
}

TEST_F(FaultNetTest, FlippedResultBitIsCaughtByTheClient) {
  // Server-to-client frame 1 (first post-handshake result frame) takes
  // a payload bit flip; the client's checksum verify must refuse it.
  FaultSchedule schedule;
  schedule.actions.push_back({FaultOp::kBitFlip, FaultDirection::kRead,
                              /*at_frame=*/1,
                              /*at_byte=*/kFrameHeaderBytes + 2,
                              /*delay_ms=*/0, /*bit_mask=*/0x80,
                              /*span_bytes=*/0});
  FaultInjector injector(schedule);
  auto client = FaultyClient(&injector);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto result = (*client)->Run(query_);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsFrameCorrupt())
      << result.status().ToString();
}

TEST_F(FaultNetTest, MidFrameDisconnectIsTypedAndContained) {
  // Hard RST three bytes into the QUERY frame's header: the classic
  // kill-9-mid-frame. The client gets a typed kConnectionReset; the
  // server sees EOF mid-frame and reaps the session without fuss.
  FaultSchedule schedule;
  schedule.actions.push_back({FaultOp::kReset, FaultDirection::kWrite,
                              /*at_frame=*/1, /*at_byte=*/3,
                              /*delay_ms=*/0, /*bit_mask=*/1,
                              /*span_bytes=*/0});
  FaultInjector injector(schedule);
  auto client = FaultyClient(&injector);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto result = (*client)->Run(query_);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsConnectionReset())
      << result.status().ToString();
  EXPECT_EQ(injector.counters().resets, 1u);
  auto after = Client::Connect(Address());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  auto rerun = (*after)->Run(query_);
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(Sorted(rerun->rows.ToVectors()), baseline_rows_);
  EXPECT_TRUE((*after)->Goodbye().ok());
}

TEST_F(FaultNetTest, OrderlyCloseMidStreamIsTyped) {
  FaultSchedule schedule;
  schedule.actions.push_back({FaultOp::kClose, FaultDirection::kWrite,
                              /*at_frame=*/1, /*at_byte=*/0,
                              /*delay_ms=*/0, /*bit_mask=*/1,
                              /*span_bytes=*/0});
  FaultInjector injector(schedule);
  auto client = FaultyClient(&injector);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto result = (*client)->Run(query_);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsConnectionReset())
      << result.status().ToString();
  EXPECT_EQ(injector.counters().closes, 1u);
}

TEST_F(FaultNetTest, DelayAndBlackholeOnlySlowTheStream) {
  // A delay plus a short read-side blackhole: bytes are merely late
  // (the kernel buffers them), so the rows must still be bit-identical.
  FaultSchedule schedule;
  schedule.actions.push_back({FaultOp::kDelay, FaultDirection::kWrite,
                              /*at_frame=*/1, /*at_byte=*/4,
                              /*delay_ms=*/30, /*bit_mask=*/1,
                              /*span_bytes=*/0});
  schedule.actions.push_back({FaultOp::kBlackhole, FaultDirection::kRead,
                              /*at_frame=*/1, /*at_byte=*/0,
                              /*delay_ms=*/60, /*bit_mask=*/1,
                              /*span_bytes=*/0});
  FaultInjector injector(schedule);
  auto client = FaultyClient(&injector);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto result = (*client)->Run(query_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Sorted(result->rows.ToVectors()), baseline_rows_);
  EXPECT_EQ(injector.counters().delays, 1u);
  EXPECT_EQ(injector.counters().blackholes, 1u);
  EXPECT_TRUE(injector.Drained());
  EXPECT_TRUE((*client)->Goodbye().ok());
}

}  // namespace
}  // namespace net
}  // namespace wireframe
