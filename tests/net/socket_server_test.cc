// End-to-end contract of net::SocketServer over loopback: streamed
// results must be bit-identical to in-process RunBatch, fault paths
// (malformed frame, oversized frame, client killed mid-stream) must be
// contained to the one connection, per-query overrides must flow
// through the QUERY frame, and rejected submissions must carry the
// resolved service class and typed status exactly like RunBatch does.
// SMOKE: the TSan job runs these — the acceptor/reader/writer/driver
// hand-offs are exactly where cross-thread races would live.

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "datagen/synthetic.h"
#include "datagen/yago_like.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/stream_sink.h"
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

/// Raw-socket HELLO/HELLO-ACK for the fault-path tests (the typed
/// Client refuses to send broken frames).
Result<Socket> RawHandshake(const SocketAddress& address) {
  WF_ASSIGN_OR_RETURN(Socket sock, Socket::Connect(address, 5000));
  std::string hello;
  AppendFrame(FrameType::kHello, EncodeHello({""}), &hello);
  WF_RETURN_NOT_OK(sock.WriteAll(hello.data(), hello.size(), 5000));
  char header[kFrameHeaderBytes];
  WF_RETURN_NOT_OK(sock.ReadExact(header, kFrameHeaderBytes, 5000));
  WF_ASSIGN_OR_RETURN(FrameHeader decoded,
                      DecodeFrameHeader(header, kDefaultMaxFrameBytes));
  std::string payload(decoded.payload_length, '\0');
  if (!payload.empty()) {
    WF_RETURN_NOT_OK(sock.ReadExact(payload.data(), payload.size(), 5000));
  }
  if (decoded.type != FrameType::kHelloAck) {
    return Status::Internal("expected HELLO-ACK");
  }
  return sock;
}

/// Reads one whole frame off a raw socket.
Result<Frame> ReadRawFrame(Socket& sock, int timeout_ms = 5000) {
  char header[kFrameHeaderBytes];
  WF_RETURN_NOT_OK(sock.ReadExact(header, kFrameHeaderBytes, timeout_ms));
  WF_ASSIGN_OR_RETURN(FrameHeader decoded,
                      DecodeFrameHeader(header, kDefaultMaxFrameBytes));
  Frame frame;
  frame.type = decoded.type;
  frame.payload.resize(decoded.payload_length);
  if (!frame.payload.empty()) {
    WF_RETURN_NOT_OK(sock.ReadExact(frame.payload.data(),
                                    frame.payload.size(), timeout_ms));
  }
  return frame;
}

/// Small YAGO-like store behind both a runtime::Server and its socket
/// front-end, listening on a kernel-assigned loopback port.
class SocketServerTest : public ::testing::Test {
 protected:
  SocketServerTest()
      : db_(MakeYagoLike({.scale = 0.01, .seed = 42})),
        catalog_(Catalog::Build(db_.store())) {
    runtime::ServerOptions options;
    options.runtime.admission.ag_cache_bytes = 16u << 20;
    server_ = std::make_unique<runtime::Server>(db_, catalog_, options);
    net_ = std::make_unique<SocketServer>(server_.get());
    Status started = net_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  std::string Address() const { return net_->address().ToString(); }

  Database db_;
  Catalog catalog_;
  std::unique_ptr<runtime::Server> server_;
  std::unique_ptr<SocketServer> net_;
};

TEST_F(SocketServerTest, StreamedRowsMatchRunBatchBitExactly) {
  std::vector<std::string> queries = Table1Queries();
  queries.push_back(
      "select (count(*) as ?n) where { ?x livesIn ?c . "
      "?c isLocatedIn ?k . }");
  std::vector<CollectingSink> sinks(queries.size());
  std::vector<Sink*> sink_ptrs;
  for (auto& sink : sinks) sink_ptrs.push_back(&sink);
  const std::vector<runtime::QueryReport> expect =
      server_->RunBatch(queries, &sink_ptrs);

  auto client = Client::Connect(Address());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto streamed = (*client)->Run(queries[i]);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    EXPECT_EQ(streamed->report.outcome, expect[i].outcome) << "query " << i;
    EXPECT_EQ(Sorted(streamed->rows.ToVectors()), Sorted(sinks[i].rows()))
        << "query " << i;
    if (expect[i].has_aggregate) {
      ASSERT_TRUE(streamed->report.has_aggregate);
      EXPECT_EQ(streamed->report.aggregate.value,
                expect[i].aggregate.value);
      EXPECT_EQ(streamed->report.aggregate.factorized,
                expect[i].aggregate.factorized);
    }
  }
  // Verbatim repeat: the answer-graph cache serves it, visibly so.
  auto repeat = (*client)->Run(queries[5]);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat->report.cache_hit);
  EXPECT_EQ(Sorted(repeat->rows.ToVectors()), Sorted(sinks[5].rows()));
  EXPECT_TRUE((*client)->Goodbye().ok());
}

TEST_F(SocketServerTest, UnknownServiceClassResolvesToDefault) {
  ClientOptions options;
  options.service_class = "no-such-tenant";
  auto client = Client::Connect(Address(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ((*client)->hello().resolved_service_class, "default");
  EXPECT_GT((*client)->hello().rows_per_batch, 0u);
  EXPECT_TRUE((*client)->Goodbye().ok());
}

TEST_F(SocketServerTest, ParseErrorTravelsInReportNotError) {
  auto client = Client::Connect(Address());
  ASSERT_TRUE(client.ok());
  auto result = (*client)->Run("select * where { broken");
  // Query-level failure: the connection survives and the REPORT carries
  // the typed status plus the resolved class (the PR 6 admission-report
  // contract, through the socket).
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->report.admitted);
  EXPECT_TRUE(result->report.status.IsParseError())
      << result->report.status.ToString();
  EXPECT_EQ(result->report.service_class, "default");
  EXPECT_EQ(result->report.outcome, runtime::QueryOutcome::kFailed);
  // Same connection keeps working.
  auto ok = (*client)->Run(Table1Queries()[7]);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->report.outcome, runtime::QueryOutcome::kCompleted);
  EXPECT_TRUE((*client)->Goodbye().ok());
}

TEST_F(SocketServerTest, MalformedFrameDrawsTypedErrorThenCloses) {
  auto sock = RawHandshake(net_->address());
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  char bad[kFrameHeaderBytes] = {0};
  bad[4] = 99;  // wire version
  bad[5] = static_cast<char>(FrameType::kQuery);
  ASSERT_TRUE(sock->WriteAll(bad, sizeof bad, 5000).ok());
  auto reply = ReadRawFrame(*sock);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, FrameType::kError);
  auto error = DecodeError(reply->payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, StatusCode::kFrameCorrupt);
  // The byte stream is untrusted now: the server closes after the ERROR.
  char byte;
  EXPECT_FALSE(sock->ReadExact(&byte, 1, 5000).ok());
  // And the counter saw it.
  EXPECT_GE(net_->stats().net_malformed_frames, 1u);
}

TEST_F(SocketServerTest, OversizedFrameDrawsTypedError) {
  auto sock = RawHandshake(net_->address());
  ASSERT_TRUE(sock.ok());
  FrameHeader huge;
  huge.payload_length = 0xfffffff0;
  huge.type = FrameType::kQuery;
  char bytes[kFrameHeaderBytes];
  EncodeFrameHeader(huge, bytes);
  ASSERT_TRUE(sock->WriteAll(bytes, sizeof bytes, 5000).ok());
  auto reply = ReadRawFrame(*sock);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, FrameType::kError);
  EXPECT_EQ(DecodeError(reply->payload)->code,
            StatusCode::kFrameCorrupt);
}

TEST_F(SocketServerTest, QueryBeforeHelloIsAProtocolError) {
  auto connected = Socket::Connect(net_->address(), 5000);
  ASSERT_TRUE(connected.ok());
  Socket sock = std::move(connected).value();
  QueryFrame query;
  query.sparql = "select * where { ?x p ?y . }";
  std::string wire;
  AppendFrame(FrameType::kQuery, EncodeQuery(query), &wire);
  ASSERT_TRUE(sock.WriteAll(wire.data(), wire.size(), 5000).ok());
  auto reply = ReadRawFrame(sock);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, FrameType::kError);
}

TEST_F(SocketServerTest, GoodbyeIsTheLastFrameOfADrain) {
  auto sock = RawHandshake(net_->address());
  ASSERT_TRUE(sock.ok());
  net_->Stop();  // drain: the idle session is told to go away
  auto frame = ReadRawFrame(*sock);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kGoodbye);
  char byte;
  EXPECT_FALSE(sock->ReadExact(&byte, 1, 5000).ok());  // then EOF
}

TEST_F(SocketServerTest, ConnectionStatsAreReported) {
  auto client = Client::Connect(Address());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Run(Table1Queries()[8]).ok());
  const runtime::RuntimeStats stats = net_->stats();
  EXPECT_GE(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.connections_active, 1u);
  ASSERT_EQ(stats.connections.size(), 1u);
  const runtime::ConnectionStats& conn = stats.connections[0];
  EXPECT_EQ(conn.service_class, "default");
  EXPECT_EQ(conn.queries, 1u);
  EXPECT_GT(conn.bytes_in, 0u);
  EXPECT_GT(conn.bytes_out, 0u);
  EXPECT_GT(conn.frames_in, 0u);
  EXPECT_GT(conn.frames_out, 0u);
  EXPECT_TRUE((*client)->Goodbye().ok());
}

TEST(StreamSinkTest, BatchedAndPerRowDeliveryCutIdenticalFrames) {
  SocketServerOptions options;
  options.rows_per_batch = 7;  // frames end mid-batch and across batches
  constexpr size_t kWidth = 3;
  constexpr size_t kRows = 100;
  std::vector<NodeId> rows(kRows * kWidth);
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<NodeId>(i);

  Connection per_row_conn;
  StreamSink per_row(options, &per_row_conn, /*timeout_seconds=*/0);
  for (size_t r = 0; r < kRows; ++r) {
    ASSERT_TRUE(per_row.Emit(std::vector<NodeId>(
        rows.begin() + r * kWidth, rows.begin() + (r + 1) * kWidth)));
  }
  per_row.Finish();

  Connection batched_conn;
  StreamSink batched(options, &batched_conn, /*timeout_seconds=*/0);
  size_t done = 0;
  for (size_t chunk : {1, 5, 13, 7, 30, 44}) {
    ASSERT_TRUE(batched.EmitBatch(rows.data() + done * kWidth, chunk, kWidth));
    done += chunk;
  }
  ASSERT_EQ(done, kRows);
  batched.Finish();

  // The sink builds its frames in place; they must be exactly what
  // EncodeRowBatch + AppendFrame produce for the same 7-row cuts.
  std::deque<std::string> expect;
  for (size_t first = 0; first < kRows; first += 7) {
    const size_t last = std::min(first + 7, kRows);
    RowBatchFrame batch;
    batch.width = kWidth;
    batch.data.assign(rows.begin() + first * kWidth,
                      rows.begin() + last * kWidth);
    AppendFrame(FrameType::kRowBatch, EncodeRowBatch(batch),
                &expect.emplace_back());
  }
  EXPECT_EQ(per_row_conn.queue, expect);
  EXPECT_EQ(batched_conn.queue, per_row_conn.queue);
  EXPECT_EQ(batched_conn.queue_bytes, per_row_conn.queue_bytes);
  EXPECT_EQ(batched.count(), kRows);
  EXPECT_EQ(per_row.count(), kRows);
}

/// Chain-blowup store (90k embeddings, ~1.4 MB of rows): enough stream
/// volume that kills, cancels, and budgets land mid-flight. The app
/// send buffer AND the kernel-level SO_SNDBUF are deliberately tiny so
/// the stream cannot hide in kernel buffering — without the latter,
/// loopback swallows the whole stream and the query completes before
/// any mid-flight event can land.
class BlowupNetTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kSendBuffer = 32u << 10;

  BlowupNetTest()
      : db_(MakeChainBlowupGraph(300, 300, /*noise=*/10)),
        catalog_(Catalog::Build(db_.store())) {
    runtime::ServerOptions options;
    options.runtime.admission.max_inflight = 1;
    options.runtime.admission.max_queued = 0;  // saturated = reject
    runtime::TenantSpec batch;
    batch.name = "batch";
    options.runtime.admission.tenants = {batch};
    server_ = std::make_unique<runtime::Server>(db_, catalog_, options);
    SocketServerOptions net_options;
    net_options.send_buffer_bytes = kSendBuffer;
    net_options.kernel_send_buffer_bytes = 16 << 10;
    net_options.rows_per_batch = 128;
    net_ = std::make_unique<SocketServer>(server_.get(), net_options);
    Status started = net_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  std::unique_ptr<Client> SmallBufferClient() {
    ClientOptions options;
    options.recv_buffer_bytes = 8 << 10;
    auto client = Client::Connect(net_->address().ToString(), options);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  const std::string kBlowup =
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }";

  Database db_;
  Catalog catalog_;
  std::unique_ptr<runtime::Server> server_;
  std::unique_ptr<SocketServer> net_;
};

TEST_F(BlowupNetTest, CancelFrameStopsTheStream) {
  std::unique_ptr<Client> client = SmallBufferClient();
  bool cancelled = false;
  bool cancel_seen = false;
  auto result = client->Run(kBlowup, [&](const RowBatchFrame&) {
    if (!cancelled) {
      cancelled = true;
      EXPECT_TRUE(client->SendCancel().ok());
      // Stop reading until the server has acted on the CANCEL. The
      // stream (~1.4 MB) is far larger than every buffer between the
      // sink and this client, so until then the sink is held in its
      // back-pressure wait and the query cannot finish first.
      for (int i = 0; i < 30000 && !cancel_seen; ++i) {
        const runtime::RuntimeStats stats = net_->stats();
        cancel_seen = !stats.connections.empty() &&
                      stats.connections[0].cancels == 1;
        if (!cancel_seen) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    }
  });
  ASSERT_TRUE(cancel_seen) << "the server never read the CANCEL";
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->report.outcome, runtime::QueryOutcome::kCancelled);
  EXPECT_LT(result->rows.size(), 90000u);  // cut short of the full set
  // The connection survives a cancel; the next query completes.
  QueryFrame small;
  small.sparql = kBlowup;
  small.row_budget = 10;
  auto after = client->Run(small);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->report.outcome,
            runtime::QueryOutcome::kBudgetExhausted);
  EXPECT_TRUE(client->Goodbye().ok());
}

TEST_F(BlowupNetTest, QueryFrameOverridesRowBudget) {
  std::unique_ptr<Client> client = SmallBufferClient();
  QueryFrame query;
  query.sparql = kBlowup;
  query.row_budget = 5;
  auto result = client->Run(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->report.outcome,
            runtime::QueryOutcome::kBudgetExhausted);
  EXPECT_EQ(result->rows.size(), 5u);
  EXPECT_TRUE(client->Goodbye().ok());
}

TEST_F(BlowupNetTest, KilledClientCancelsItsQueryAndServerSurvives) {
  {
    std::unique_ptr<Client> victim = SmallBufferClient();
    bool killed = false;
    auto run = victim->Run(kBlowup, [&](const RowBatchFrame&) {
      if (!killed) {
        killed = true;
        victim->socket().Reset();  // RST mid-stream, like kill -9
      }
    });
    EXPECT_TRUE(killed);
    EXPECT_FALSE(run.ok());
  }
  // The abort must reach the counters (the reader notices on its next
  // pump slice) and a fresh connection must serve normally.
  for (int i = 0; i < 500 && net_->stats().net_aborted_streams == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(net_->stats().net_aborted_streams, 1u);
  std::unique_ptr<Client> after = SmallBufferClient();
  QueryFrame query;
  query.sparql = kBlowup;
  query.row_budget = 100;
  auto result = after->Run(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 100u);
  EXPECT_TRUE(after->Goodbye().ok());
}

TEST_F(BlowupNetTest, RejectedSubmissionCarriesResolvedClassAndStatus) {
  // Connection A jams the single in-flight slot: at its FIRST batch the
  // engine has emitted at most app-queue + SO_SNDBUF + one frame
  // (~50 KB of 1.4 MB), so the query is necessarily still in flight.
  // Connection B ("batch" tenant) then submits into the saturated
  // runtime and must get the RunBatch-shaped rejection: admitted=false,
  // ResourceExhausted, and the RESOLVED class — through the socket, not
  // just in-process (the PR 6 regression, wire edition).
  auto connected = Client::Connect(net_->address().ToString());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  std::unique_ptr<Client> slow = std::move(connected).value();
  bool probed = false;
  runtime::QueryReport rejected;
  Status probe_status = Status::OK();
  auto result = slow->Run(kBlowup, [&](const RowBatchFrame&) {
    if (probed) return;
    probed = true;
    ClientOptions options;
    options.service_class = "batch";
    auto other = Client::Connect(net_->address().ToString(), options);
    if (!other.ok()) {
      probe_status = other.status();
      return;
    }
    auto run = (*other)->Run(kBlowup);
    if (!run.ok()) {
      probe_status = run.status();
      return;
    }
    rejected = run->report;
    probe_status = (*other)->Goodbye();
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(probed);
  ASSERT_TRUE(probe_status.ok()) << probe_status.ToString();
  EXPECT_FALSE(rejected.admitted);
  EXPECT_TRUE(rejected.status.IsResourceExhausted())
      << rejected.status.ToString();
  EXPECT_EQ(rejected.service_class, "batch");
  EXPECT_EQ(rejected.outcome, runtime::QueryOutcome::kFailed);
  // A's own stream was only slowed, never corrupted.
  EXPECT_EQ(result->report.outcome, runtime::QueryOutcome::kCompleted);
  EXPECT_EQ(result->rows.size(), 90000u);
  EXPECT_TRUE(slow->Goodbye().ok());
}

}  // namespace
}  // namespace net
}  // namespace wireframe
