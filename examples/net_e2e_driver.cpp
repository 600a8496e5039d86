// End-to-end driver of the socket front-end, run by the CI net-e2e job
// against a live wf_server:
//
//   $ net_e2e_driver --connect=ADDR [--scale=0.02] [--seed=42]
//                    [--expect_cache_hit=true]
//
// It rebuilds the server's store locally (MakeYagoLike is deterministic
// in --scale/--seed, which MUST match the server's), runs the Table-1
// query mix — plus an aggregate and a verbatim cache-hit repeat — both
// in-process through runtime::Server::RunBatch and streamed over the
// socket, and exits nonzero unless:
//   - streamed rows are bit-identical (as sets: parallel emission order
//     is nondeterministic) to the in-process rows for every query,
//   - the aggregate answers match exactly,
//   - fault paths behave: a malformed frame draws a typed ERROR, an
//     oversized frame draws a typed ERROR, a client killed mid-stream
//     leaves the server healthy for the next connection.

#include <algorithm>
#include <iostream>
#include <thread>

#include "catalog/catalog.h"
#include "datagen/yago_like.h"
#include "net/client.h"
#include "net/socket.h"
#include "net/wire.h"
#include "runtime/server.h"
#include "util/flags.h"

using namespace wireframe;

namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::cout << (ok ? "  ok: " : "  FAIL: ") << what << "\n";
  if (!ok) ++g_failures;
}

std::vector<std::vector<NodeId>> Sorted(
    std::vector<std::vector<NodeId>> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

bool SameAggregate(const AggregateResult& a, const AggregateResult& b) {
  if (a.kind != b.kind || a.ask != b.ask ||
      a.value.lo != b.value.lo || a.value.hi != b.value.hi ||
      a.value.saturated != b.value.saturated ||
      a.groups.size() != b.groups.size()) {
    return false;
  }
  auto key = [](const AggregateGroup& g) { return g.key; };
  std::vector<AggregateGroup> ga = a.groups, gb = b.groups;
  std::sort(ga.begin(), ga.end(),
            [&](const auto& x, const auto& y) { return key(x) < key(y); });
  std::sort(gb.begin(), gb.end(),
            [&](const auto& x, const auto& y) { return key(x) < key(y); });
  for (size_t i = 0; i < ga.size(); ++i) {
    if (ga[i].key != gb[i].key || ga[i].value.lo != gb[i].value.lo ||
        ga[i].value.hi != gb[i].value.hi) {
      return false;
    }
  }
  return true;
}

/// Raw-socket handshake for the fault-path probes (the typed Client
/// refuses to send broken frames, so these speak bytes directly).
Result<net::Socket> RawHandshake(const net::SocketAddress& address) {
  WF_ASSIGN_OR_RETURN(net::Socket sock,
                      net::Socket::Connect(address, 5000));
  std::string hello;
  net::AppendFrame(net::FrameType::kHello, net::EncodeHello({""}), &hello);
  WF_RETURN_NOT_OK(sock.WriteAll(hello.data(), hello.size(), 5000));
  char header[net::kFrameHeaderBytes];
  WF_RETURN_NOT_OK(
      sock.ReadExact(header, net::kFrameHeaderBytes, 5000));
  WF_ASSIGN_OR_RETURN(
      net::FrameHeader decoded,
      net::DecodeFrameHeader(header, net::kDefaultMaxFrameBytes));
  std::string payload(decoded.payload_length, '\0');
  if (decoded.payload_length > 0) {
    WF_RETURN_NOT_OK(
        sock.ReadExact(payload.data(), payload.size(), 5000));
  }
  if (decoded.type != net::FrameType::kHelloAck) {
    return Status::Internal("handshake did not return HELLO-ACK");
  }
  return sock;
}

/// Reads one frame and expects a typed ERROR carrying `code`.
bool ExpectError(net::Socket& sock, StatusCode code, std::string* got) {
  char header[net::kFrameHeaderBytes];
  if (!sock.ReadExact(header, net::kFrameHeaderBytes, 5000).ok()) {
    *got = "connection closed before any ERROR frame";
    return false;
  }
  auto decoded =
      net::DecodeFrameHeader(header, net::kDefaultMaxFrameBytes);
  if (!decoded.ok()) {
    *got = "unparseable reply header";
    return false;
  }
  std::string payload(decoded->payload_length, '\0');
  if (!payload.empty() &&
      !sock.ReadExact(payload.data(), payload.size(), 5000).ok()) {
    *got = "truncated reply payload";
    return false;
  }
  if (decoded->type != net::FrameType::kError) {
    *got = std::string("got ") + net::FrameTypeName(decoded->type);
    return false;
  }
  auto error = net::DecodeError(payload);
  if (!error.ok()) {
    *got = "undecodable ERROR payload";
    return false;
  }
  *got = error->ToStatus().ToString();
  return error->code == code;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (!flags.Has("connect")) {
    std::cerr << "usage: net_e2e_driver --connect=ADDR [--scale=..] "
                 "[--seed=..] [--expect_cache_hit=true]\n";
    return 2;
  }
  const std::string address_text = flags.GetString("connect", "");
  auto address = net::SocketAddress::Parse(address_text);
  if (!address.ok()) {
    std::cerr << address.status().ToString() << "\n";
    return 2;
  }

  YagoLikeConfig config;
  config.scale = flags.GetDouble("scale", 0.02);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  std::cout << "building reference store (scale " << config.scale
            << ", seed " << config.seed << ")...\n";
  Database db = MakeYagoLike(config);
  Catalog catalog = Catalog::Build(db.store());

  // The query mix: all ten Table-1 queries, one factorized aggregate,
  // and a verbatim repeat of a diamond query (an AgCache hit when the
  // server runs with --ag_cache_mb > 0).
  std::vector<std::string> queries = Table1Queries();
  const std::string aggregate_query =
      "select (count(*) as ?n) where { ?x livesIn ?c . "
      "?c isLocatedIn ?k . }";
  queries.push_back(aggregate_query);
  const size_t repeat_index = 5;
  queries.push_back(queries[repeat_index]);

  // In-process reference run on the same runtime configuration the
  // socket path uses (cache on, so the repeat exercises the same path).
  runtime::ServerOptions server_options;
  server_options.runtime.admission.ag_cache_bytes = 64u << 20;
  runtime::Server reference(db, catalog, server_options);
  std::vector<CollectingSink> sinks(queries.size());
  std::vector<Sink*> sink_ptrs;
  for (auto& sink : sinks) sink_ptrs.push_back(&sink);
  std::vector<runtime::QueryReport> reference_reports =
      reference.RunBatch(queries, &sink_ptrs);

  std::cout << "querying " << address_text << "...\n";
  auto client = net::Client::Connect(address_text);
  if (!client.ok()) {
    std::cerr << client.status().ToString() << "\n";
    return 1;
  }

  for (size_t i = 0; i < queries.size(); ++i) {
    auto streamed = (*client)->Run(queries[i]);
    if (!streamed.ok()) {
      Check(false, "query " + std::to_string(i) + ": " +
                       streamed.status().ToString());
      continue;
    }
    const runtime::QueryReport& expect = reference_reports[i];
    const runtime::QueryReport& got = streamed->report;
    Check(got.outcome == expect.outcome &&
              got.admitted == expect.admitted,
          "query " + std::to_string(i) + " outcome " +
              runtime::QueryOutcomeName(got.outcome));
    Check(Sorted(streamed->rows.ToVectors()) == Sorted(sinks[i].rows()),
          "query " + std::to_string(i) + " rows bit-identical (" +
              std::to_string(streamed->rows.size()) + " rows)");
    if (expect.has_aggregate) {
      Check(got.has_aggregate &&
                SameAggregate(got.aggregate, expect.aggregate),
            "query " + std::to_string(i) + " aggregate answer");
    }
    if (i + 1 == queries.size() &&
        flags.GetBool("expect_cache_hit", false)) {
      Check(got.cache_hit, "verbatim repeat served from the AG cache");
    }
  }

  // Fault path 1: malformed frame (bad wire version) draws a typed
  // ERROR before the connection closes.
  {
    std::string got;
    auto sock = RawHandshake(*address);
    if (!sock.ok()) {
      Check(false, "fault raw handshake: " + sock.status().ToString());
    } else {
      char bad[net::kFrameHeaderBytes] = {0};
      bad[4] = 99;  // version
      bad[5] = static_cast<char>(net::FrameType::kQuery);
      const bool typed =
          sock->WriteAll(bad, sizeof bad, 5000).ok() &&
          ExpectError(*sock, StatusCode::kFrameCorrupt, &got);
      Check(typed, "malformed frame drew a typed ERROR (" + got + ")");
    }
  }

  // Fault path 2: oversized frame (hostile length prefix) draws a typed
  // ERROR without the server allocating or reading the payload.
  {
    std::string got;
    auto sock = RawHandshake(*address);
    if (!sock.ok()) {
      Check(false, "fault raw handshake: " + sock.status().ToString());
    } else {
      net::FrameHeader huge;
      huge.payload_length = 0xffffffff;
      huge.version = net::kWireVersion;
      huge.type = net::FrameType::kQuery;
      char bytes[net::kFrameHeaderBytes];
      net::EncodeFrameHeader(huge, bytes);
      const bool typed =
          sock->WriteAll(bytes, sizeof bytes, 5000).ok() &&
          ExpectError(*sock, StatusCode::kFrameCorrupt, &got);
      Check(typed, "oversized frame drew a typed ERROR (" + got + ")");
    }
  }

  // Fault path 3: client killed mid-stream (RST) — the server must
  // cancel that query and keep serving other connections.
  {
    // Kill during the densest stream so at least one ROW-BATCH frame is
    // guaranteed to be in flight when the connection resets.
    size_t big = 0;
    for (size_t i = 0; i < sinks.size(); ++i) {
      if (sinks[i].rows().size() > sinks[big].rows().size()) big = i;
    }
    auto victim = net::Client::Connect(address_text);
    if (!victim.ok()) {
      Check(false, "victim connect: " + victim.status().ToString());
    } else {
      bool killed = false;
      auto run = (*victim)->Run(
          queries[big], [&](const net::RowBatchFrame&) {
            if (!killed) {
              killed = true;
              (*victim)->socket().Reset();  // simulate kill -9
            }
          });
      Check(killed && !run.ok(),
            "victim stream interrupted by hard close");
    }
    // The server must still be healthy for a fresh connection.
    auto after = net::Client::Connect(address_text);
    bool healthy = false;
    if (after.ok()) {
      auto rerun = (*after)->Run(queries[repeat_index]);
      healthy = rerun.ok() && Sorted(rerun->rows.ToVectors()) ==
                                  Sorted(sinks[repeat_index].rows());
      (void)(*after)->Goodbye();
    }
    Check(healthy, "server healthy after mid-stream client kill");
  }

  // Drain contract: GOODBYE comes back after everything else.
  Check((*client)->Goodbye().ok(), "GOODBYE drain completed");

  if (g_failures == 0) {
    std::cout << "net-e2e: all checks passed\n";
    return 0;
  }
  std::cout << "net-e2e: " << g_failures << " check(s) FAILED\n";
  return 1;
}
