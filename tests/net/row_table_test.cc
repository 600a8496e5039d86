// net::RowTable, the client's result layout: decoded ROW-BATCH frames
// kept whole. Rows must come out in stream order across batch
// boundaries, through Row(i), iteration and ToVectors alike; size() must
// match the REPORT; a batch of another width must still be rejected
// mid-stream; and a BatchHook must still see every batch before it is
// moved into the table.
// SMOKE: the TSan job runs these — they stream through the socket
// server's reader, writer and driver threads.

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "datagen/yago_like.h"
#include "exec/sink.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "runtime/server.h"

namespace wireframe {
namespace net {
namespace {

RowBatchFrame Batch(uint32_t width, std::vector<NodeId> data) {
  RowBatchFrame batch;
  batch.width = width;
  batch.data = std::move(data);
  return batch;
}

std::vector<NodeId> Flatten(const RowTable& table) {
  std::vector<NodeId> flat;
  for (std::span<const NodeId> row : table) {
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return flat;
}

TEST(RowTable, RowsKeepStreamOrderAcrossBatches) {
  RowTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.begin(), table.end());
  ASSERT_TRUE(table.Append(Batch(2, {1, 2, 3, 4, 5, 6})).ok());
  ASSERT_TRUE(table.Append(Batch(2, {})).ok());  // empty: no row
  ASSERT_TRUE(table.Append(Batch(2, {7, 8})).ok());
  ASSERT_TRUE(table.Append(Batch(2, {9, 10, 11, 12})).ok());
  EXPECT_EQ(table.width(), 2u);
  ASSERT_EQ(table.size(), 6u);
  EXPECT_EQ(Flatten(table),
            (std::vector<NodeId>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}));
  for (size_t i = 0; i < table.size(); ++i) {
    const std::span<const NodeId> row = table.Row(i);
    ASSERT_EQ(row.size(), 2u);
    EXPECT_EQ(row[0], 2 * i + 1) << "row " << i;
    EXPECT_EQ(row[1], 2 * i + 2) << "row " << i;
  }
  const std::vector<std::vector<NodeId>> vectors = table.ToVectors();
  ASSERT_EQ(vectors.size(), 6u);
  EXPECT_EQ(vectors[3], (std::vector<NodeId>{7, 8}));
  EXPECT_EQ(vectors[5], (std::vector<NodeId>{11, 12}));
}

TEST(RowTable, RejectsAWidthChange) {
  RowTable table;
  ASSERT_TRUE(table.Append(Batch(2, {1, 2})).ok());
  const Status changed = table.Append(Batch(3, {1, 2, 3}));
  EXPECT_FALSE(changed.ok());
  EXPECT_EQ(table.size(), 1u);
  // An empty batch fixes the width as well.
  RowTable empty_first;
  ASSERT_TRUE(empty_first.Append(Batch(4, {})).ok());
  EXPECT_FALSE(empty_first.Append(Batch(2, {1, 2})).ok());
}

/// Small YAGO-like store behind a socket server cutting frames every
/// `rows_per_batch` rows.
class RowTableStreamTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  RowTableStreamTest()
      : db_(MakeYagoLike({.scale = 0.01, .seed = 42})),
        catalog_(Catalog::Build(db_.store())) {
    server_ = std::make_unique<runtime::Server>(db_, catalog_);
    SocketServerOptions options;
    options.rows_per_batch = GetParam();
    net_ = std::make_unique<SocketServer>(server_.get(), options);
    Status started = net_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  Database db_;
  Catalog catalog_;
  std::unique_ptr<runtime::Server> server_;
  std::unique_ptr<SocketServer> net_;
};

TEST_P(RowTableStreamTest, RowsArriveInStreamOrder) {
  const uint32_t rows_per_batch = GetParam();
  auto client = Client::Connect(net_->address().ToString());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // Row 2 streams 7360 rows (several 1024-row frames); row 8 is cyclic
  // and small.
  for (size_t q : {1, 7}) {
    const std::string query = Table1Queries()[q];
    std::vector<CollectingSink> sinks(1);
    std::vector<Sink*> sink_ptrs = {&sinks[0]};
    const std::vector<runtime::QueryReport> expect =
        server_->RunBatch({query}, &sink_ptrs);

    // The hook sees each batch before the table takes it over.
    std::vector<NodeId> hooked;
    size_t batches = 0;
    auto result = (*client)->Run(query, [&](const RowBatchFrame& batch) {
      ++batches;
      EXPECT_LE(batch.rows(), rows_per_batch);
      hooked.insert(hooked.end(), batch.data.begin(), batch.data.end());
    });
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const RowTable& rows = result->rows;
    ASSERT_EQ(result->report.outcome, runtime::QueryOutcome::kCompleted);
    ASSERT_GT(rows.size(), 0u) << "query " << q;
    EXPECT_EQ(rows.size(), result->report.rows);
    EXPECT_EQ(batches, (rows.size() + rows_per_batch - 1) / rows_per_batch);
    EXPECT_EQ(Flatten(rows), hooked) << "query " << q;
    for (size_t i = 0; i < rows.size(); ++i) {
      const std::span<const NodeId> row = rows.Row(i);
      ASSERT_TRUE(std::equal(row.begin(), row.end(),
                             hooked.begin() + i * rows.width()))
          << "row " << i;
    }
    std::vector<std::vector<NodeId>> streamed = rows.ToVectors();
    std::vector<std::vector<NodeId>> in_process = sinks[0].rows();
    std::sort(streamed.begin(), streamed.end());
    std::sort(in_process.begin(), in_process.end());
    EXPECT_EQ(streamed, in_process) << "query " << q;
  }
  EXPECT_TRUE((*client)->Goodbye().ok());
}

INSTANTIATE_TEST_SUITE_P(RowsPerBatch, RowTableStreamTest,
                         ::testing::Values(1u, 7u, 1024u));

/// A one-connection peer that completes the handshake, then answers the
/// first QUERY with `frames` verbatim and waits for the client to hang
/// up. Lets a test put frames on the wire that no real server sends.
class ScriptedPeer {
 public:
  explicit ScriptedPeer(std::vector<std::string> frames)
      : frames_(std::move(frames)) {
    auto address = SocketAddress::Parse("127.0.0.1:0");
    EXPECT_TRUE(address.ok());
    auto listener = Socket::Listen(*address, 1);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    listener_ = std::move(listener).value();
    auto port = listener_.BoundPort();
    EXPECT_TRUE(port.ok());
    address_ = "127.0.0.1:" + std::to_string(*port);
    thread_ = std::thread([this] { Serve(); });
  }
  ~ScriptedPeer() { thread_.join(); }
  ScriptedPeer(const ScriptedPeer&) = delete;
  ScriptedPeer& operator=(const ScriptedPeer&) = delete;

  const std::string& address() const { return address_; }

 private:
  static Status ReadOneFrame(Socket& sock) {
    char header[kFrameHeaderBytes];
    WF_RETURN_NOT_OK(sock.ReadExact(header, kFrameHeaderBytes, 5000));
    WF_ASSIGN_OR_RETURN(FrameHeader decoded,
                        DecodeFrameHeader(header, kDefaultMaxFrameBytes));
    std::string payload(decoded.payload_length, '\0');
    if (!payload.empty()) {
      WF_RETURN_NOT_OK(sock.ReadExact(payload.data(), payload.size(), 5000));
    }
    return Status::OK();
  }

  void Serve() {
    auto accepted = listener_.Accept(5000);
    ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
    Socket sock = std::move(accepted).value();
    ASSERT_TRUE(ReadOneFrame(sock).ok());  // HELLO
    std::string ack;
    AppendFrame(FrameType::kHelloAck, EncodeHelloAck({}), &ack);
    ASSERT_TRUE(sock.WriteAll(ack.data(), ack.size(), 5000).ok());
    ASSERT_TRUE(ReadOneFrame(sock).ok());  // QUERY
    for (const std::string& frame : frames_) {
      ASSERT_TRUE(sock.WriteAll(frame.data(), frame.size(), 5000).ok());
    }
    // Until the client closes: anything it sends (PING, GOODBYE) is
    // ignored, and the first read error ends the session.
    while (ReadOneFrame(sock).ok()) {
    }
  }

  std::vector<std::string> frames_;
  Socket listener_;
  std::string address_;
  std::thread thread_;
};

std::string RowBatchWire(uint32_t width, std::vector<NodeId> data) {
  std::string frame;
  AppendFrame(FrameType::kRowBatch, EncodeRowBatch(Batch(width, data)),
              &frame);
  return frame;
}

TEST(RowTableWire, WidthChangeMidStreamIsRejected) {
  std::string report;
  AppendFrame(FrameType::kReport, EncodeReport({}), &report);
  ScriptedPeer peer({RowBatchWire(2, {1, 2, 3, 4}),
                     RowBatchWire(3, {5, 6, 7}), report});
  auto client = Client::Connect(peer.address());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  size_t hooked = 0;
  auto result = (*client)->Run("q", [&](const RowBatchFrame&) { ++hooked; });
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("width changed"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(hooked, 2u);
  (*client)->socket().Close();
}

TEST(RowTableWire, HostileRowCountIsMalformedNotFatal) {
  // width = rows = 2^31 over an empty body: the product wraps size_t, and
  // must still decode as a malformed payload, not a throw.
  std::string payload(kRowBatchHeaderBytes, '\0');
  EncodeRowBatchHeader(1u << 31, 1u << 31, payload.data());
  std::string frame;
  AppendFrame(FrameType::kRowBatch, payload, &frame);
  ScriptedPeer peer({frame});
  auto client = Client::Connect(peer.address());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto result = (*client)->Run("q");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsParseError()) << result.status().ToString();
  (*client)->socket().Close();
}

}  // namespace
}  // namespace net
}  // namespace wireframe
