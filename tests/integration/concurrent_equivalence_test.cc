// Concurrent-vs-serial equivalence: N queries submitted concurrently
// through the shared QueryRuntime must produce exactly the embeddings and
// |AG| of sequential, private-pool runs. Together with the runtime unit
// suite this is the TSan CI job's cross-query workload: several driver
// threads interleave morsel task-groups from different queries on one
// pool while the test compares results.

#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/wireframe.h"
#include "datagen/synthetic.h"
#include "query/parser.h"
#include "query/shape.h"
#include "runtime/query_runtime.h"
#include "runtime/server.h"
#include "testutil/fixtures.h"

namespace wireframe {
namespace {

using runtime::QueryOutcome;
using runtime::QueryRequest;
using runtime::QueryRuntime;
using runtime::QuerySession;
using runtime::RuntimeOptions;

struct SerialRun {
  std::multiset<std::vector<NodeId>> rows;
  uint64_t ag_pairs = 0;
};

/// Ground truth: one engine, no runtime, no pool (every loop inline).
SerialRun RunSerial(const Database& db, const Catalog& cat,
                    const QueryGraph& q) {
  WireframeEngine engine;
  CollectingSink sink;
  EngineOptions options;  // null pool: morsel loops run inline
  auto stats = engine.Run(db, cat, q, options, &sink);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  SerialRun run;
  run.rows = {sink.rows().begin(), sink.rows().end()};
  if (stats.ok()) run.ag_pairs = stats->ag_pairs;
  return run;
}

RuntimeOptions ConcurrentOptions(uint32_t inflight) {
  RuntimeOptions options;
  options.pool_threads = 4;
  options.admission.max_inflight = inflight;
  options.admission.max_queued = 64;
  return options;
}

TEST(ConcurrentEquivalenceTest, MixedWorkloadMatchesSerialRuns) {
  // A workload diverse enough to keep several phase-1/phase-2 loops in
  // flight at once: chain blow-ups plus random acyclic and cyclic
  // queries over random graphs.
  std::vector<Database> dbs;
  std::vector<Catalog> cats;
  std::vector<QueryGraph> queries;

  dbs.push_back(MakeChainBlowupGraph(300, 300, /*noise=*/30));
  cats.push_back(Catalog::Build(dbs.back().store()));
  auto chain = SparqlParser::ParseAndBind(
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }", dbs.back());
  ASSERT_TRUE(chain.ok());
  queries.push_back(std::move(chain).value());

  Rng rng(20260730);
  int cyclic_seen = 0;
  for (int trial = 0; trial < 7; ++trial) {
    dbs.push_back(MakeRandomGraph(40, 3, 420, 5000 + trial));
    cats.push_back(Catalog::Build(dbs.back().store()));
    QueryGraph q = MakeRandomQuery(rng, 2 + rng.Uniform(4), 5, 3);
    cyclic_seen += IsAcyclic(q) ? 0 : 1;
    queries.push_back(std::move(q));
  }
  EXPECT_GT(cyclic_seen, 0) << "workload must exercise the chord paths";

  std::vector<SerialRun> expected;
  expected.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    expected.push_back(RunSerial(dbs[i], cats[i], queries[i]));
  }

  // Two rounds at different in-flight levels; every query of a round is
  // submitted before any result is awaited, so executions overlap.
  for (uint32_t inflight : {4u, 8u}) {
    QueryRuntime runtime(ConcurrentOptions(inflight));
    std::vector<std::unique_ptr<CollectingSink>> sinks;
    std::vector<std::shared_ptr<QuerySession>> sessions;
    for (size_t i = 0; i < queries.size(); ++i) {
      sinks.push_back(std::make_unique<CollectingSink>());
      QueryRequest request;
      request.db = &dbs[i];
      request.catalog = &cats[i];
      request.query = queries[i];
      request.sink = sinks.back().get();
      auto session = runtime.Submit(std::move(request));
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      sessions.push_back(std::move(session).value());
    }
    for (size_t i = 0; i < sessions.size(); ++i) {
      sessions[i]->Wait();
      EXPECT_EQ(sessions[i]->outcome(), QueryOutcome::kCompleted)
          << "query " << i << " inflight " << inflight << ": "
          << sessions[i]->status().ToString();
      std::multiset<std::vector<NodeId>> rows = {sinks[i]->rows().begin(),
                                                 sinks[i]->rows().end()};
      EXPECT_EQ(rows, expected[i].rows)
          << "query " << i << " inflight " << inflight;
      EXPECT_EQ(sessions[i]->stats().ag_pairs, expected[i].ag_pairs)
          << "query " << i << " inflight " << inflight;
    }
  }
}

// The same queries submitted twice concurrently against ONE runtime must
// not interfere: identical sessions produce identical results.
TEST(ConcurrentEquivalenceTest, DuplicateQueriesDoNotInterfere) {
  Database db = MakeChainBlowupGraph(250, 250, /*noise=*/25);
  Catalog cat = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }", db);
  ASSERT_TRUE(q.ok());
  const SerialRun expected = RunSerial(db, cat, *q);

  QueryRuntime runtime(ConcurrentOptions(4));
  constexpr int kCopies = 6;
  std::vector<std::unique_ptr<CollectingSink>> sinks;
  std::vector<std::shared_ptr<QuerySession>> sessions;
  for (int i = 0; i < kCopies; ++i) {
    sinks.push_back(std::make_unique<CollectingSink>());
    QueryRequest request;
    request.db = &db;
    request.catalog = &cat;
    request.query = *q;
    request.sink = sinks.back().get();
    auto session = runtime.Submit(std::move(request));
    ASSERT_TRUE(session.ok());
    sessions.push_back(std::move(session).value());
  }
  for (int i = 0; i < kCopies; ++i) {
    sessions[i]->Wait();
    EXPECT_EQ(sessions[i]->outcome(), QueryOutcome::kCompleted);
    std::multiset<std::vector<NodeId>> rows = {sinks[i]->rows().begin(),
                                               sinks[i]->rows().end()};
    EXPECT_EQ(rows, expected.rows) << "copy " << i;
    EXPECT_EQ(sessions[i]->stats().ag_pairs, expected.ag_pairs);
  }
}

// The server front-end: a SPARQL batch over one shared database yields
// exact per-query results and reports.
TEST(ConcurrentEquivalenceTest, ServerBatchMatchesSerialRuns) {
  Database db = MakeChainBlowupGraph(200, 200, /*noise=*/10);
  Catalog cat = Catalog::Build(db.store());
  const std::string chain =
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }";
  const std::string pair = "select * where { ?x B ?y . ?y C ?z . }";

  auto chain_q = SparqlParser::ParseAndBind(chain, db);
  auto pair_q = SparqlParser::ParseAndBind(pair, db);
  ASSERT_TRUE(chain_q.ok());
  ASSERT_TRUE(pair_q.ok());
  const SerialRun chain_expected = RunSerial(db, cat, *chain_q);
  const SerialRun pair_expected = RunSerial(db, cat, *pair_q);

  runtime::ServerOptions options;
  options.runtime = ConcurrentOptions(4);
  runtime::Server server(db, cat, options);
  std::vector<std::unique_ptr<CollectingSink>> sinks;
  std::vector<Sink*> sink_ptrs;
  for (int i = 0; i < 4; ++i) {
    sinks.push_back(std::make_unique<CollectingSink>());
    sink_ptrs.push_back(sinks.back().get());
  }
  const std::vector<std::string> batch = {chain, pair, chain, pair};
  const std::vector<runtime::QueryReport> reports =
      server.RunBatch(batch, &sink_ptrs);
  ASSERT_EQ(reports.size(), 4u);
  for (size_t i = 0; i < reports.size(); ++i) {
    ASSERT_TRUE(reports[i].admitted);
    EXPECT_EQ(reports[i].outcome, QueryOutcome::kCompleted) << i;
    const SerialRun& expected = i % 2 == 0 ? chain_expected : pair_expected;
    std::multiset<std::vector<NodeId>> rows = {sinks[i]->rows().begin(),
                                               sinks[i]->rows().end()};
    EXPECT_EQ(rows, expected.rows) << "batch query " << i;
    EXPECT_EQ(reports[i].rows, expected.rows.size());
  }
}

// Service classes are a scheduling knob, never a semantic one: the same
// batch submitted under wildly different weights/quotas yields exactly
// the serial embeddings and |AG| per query, while every report carries
// its resolved class.
TEST(ConcurrentEquivalenceTest, ServiceClassNeverChangesResults) {
  Database db = MakeChainBlowupGraph(200, 200, /*noise=*/10);
  Catalog cat = Catalog::Build(db.store());
  const std::string chain =
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }";
  const std::string pair = "select * where { ?x B ?y . ?y C ?z . }";
  auto chain_q = SparqlParser::ParseAndBind(chain, db);
  auto pair_q = SparqlParser::ParseAndBind(pair, db);
  ASSERT_TRUE(chain_q.ok());
  ASSERT_TRUE(pair_q.ok());
  const SerialRun chain_expected = RunSerial(db, cat, *chain_q);
  const SerialRun pair_expected = RunSerial(db, cat, *pair_q);

  runtime::ServerOptions options;
  options.runtime = ConcurrentOptions(4);
  runtime::TenantSpec latency;
  latency.name = "latency";
  latency.weight = 1000;
  runtime::TenantSpec batch_class;
  batch_class.name = "batch";
  batch_class.weight = 1;
  batch_class.max_inflight = 2;
  options.runtime.admission.tenants = {latency, batch_class};
  runtime::Server server(db, cat, options);

  std::vector<std::unique_ptr<CollectingSink>> sinks;
  std::vector<Sink*> sink_ptrs;
  for (int i = 0; i < 6; ++i) {
    sinks.push_back(std::make_unique<CollectingSink>());
    sink_ptrs.push_back(sinks.back().get());
  }
  const std::vector<std::string> queries = {chain, pair, chain,
                                            pair, chain, pair};
  const std::vector<std::string> classes = {"latency", "batch", "batch",
                                            "latency", "", "unknown"};
  const std::vector<runtime::QueryReport> reports =
      server.RunBatch(queries, &sink_ptrs, &classes);
  ASSERT_EQ(reports.size(), 6u);
  const std::vector<std::string> resolved = {"latency", "batch", "batch",
                                             "latency", "default", "default"};
  for (size_t i = 0; i < reports.size(); ++i) {
    ASSERT_TRUE(reports[i].admitted) << i;
    EXPECT_EQ(reports[i].outcome, QueryOutcome::kCompleted)
        << i << ": " << reports[i].status.ToString();
    EXPECT_EQ(reports[i].service_class, resolved[i]) << i;
    const SerialRun& expected = i % 2 == 0 ? chain_expected : pair_expected;
    std::multiset<std::vector<NodeId>> rows = {sinks[i]->rows().begin(),
                                               sinks[i]->rows().end()};
    EXPECT_EQ(rows, expected.rows) << "batch query " << i;
    EXPECT_EQ(reports[i].stats.ag_pairs, expected.ag_pairs) << i;
  }
}

}  // namespace
}  // namespace wireframe
