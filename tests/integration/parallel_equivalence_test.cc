// Parallel-vs-serial equivalence: threads=N must produce exactly the
// same embedding multiset and the same |AG| as the serial engine, on the
// paper's fixtures and on randomized workloads. These tests are the
// ThreadSanitizer CI job's main workload, so they deliberately drive
// every parallel code path: phase-1 sharded generation, phase-2 parallel
// enumeration, the bushy executor, and the hash-join baseline's parallel
// build side.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/wireframe.h"
#include "datagen/synthetic.h"
#include "exec/engine.h"
#include "query/parser.h"
#include "query/shape.h"
#include "testutil/fixtures.h"
#include "util/thread_pool.h"

namespace wireframe {
namespace {

struct WfRun {
  std::set<std::vector<NodeId>> rows;
  uint64_t ag_pairs = 0;
  uint64_t output_tuples = 0;
};

WfRun RunWf(const Database& db, const Catalog& cat, const QueryGraph& q,
            uint32_t threads, WireframeOptions wf_options = {}) {
  WireframeEngine engine(wf_options);
  CollectingSink sink;
  EngineOptions options;
  ThreadPool pool(threads);
  options.pool = &pool;
  auto detail = engine.RunDetailed(db, cat, q, options, &sink);
  EXPECT_TRUE(detail.ok()) << detail.status().ToString();
  WfRun run;
  run.rows = {sink.rows().begin(), sink.rows().end()};
  if (detail.ok()) {
    run.ag_pairs = detail->stats.ag_pairs;
    run.output_tuples = detail->stats.output_tuples;
  }
  return run;
}

std::set<std::vector<NodeId>> RunEngine(const char* name, const Database& db,
                                        const Catalog& cat,
                                        const QueryGraph& q,
                                        uint32_t threads) {
  auto engine = MakeEngine(name);
  CollectingSink sink;
  EngineOptions options;
  ThreadPool pool(threads);
  options.pool = &pool;
  auto stats = engine->Run(db, cat, q, options, &sink);
  EXPECT_TRUE(stats.ok()) << name << ": " << stats.status().ToString();
  return {sink.rows().begin(), sink.rows().end()};
}

using ParallelFig1Test = testutil::Fig1Fixture;
using ParallelFig4Test = testutil::Fig4Fixture;

TEST_F(ParallelFig1Test, ThreadCountsAgreeOnFig1) {
  const WfRun serial = RunWf(db_, cat_, query(), 1);
  EXPECT_EQ(serial.rows.size(), 12u);
  EXPECT_EQ(serial.ag_pairs, 8u);
  for (uint32_t threads : {2u, 4u}) {
    const WfRun parallel = RunWf(db_, cat_, query(), threads);
    EXPECT_EQ(parallel.rows, serial.rows) << "threads=" << threads;
    EXPECT_EQ(parallel.ag_pairs, serial.ag_pairs) << "threads=" << threads;
    EXPECT_EQ(parallel.output_tuples, serial.output_tuples);
  }
}

TEST_F(ParallelFig4Test, ThreadCountsAgreeOnFig4Cyclic) {
  const WfRun serial = RunWf(db_, cat_, query(), 1);
  EXPECT_EQ(serial.rows.size(), 2u);
  for (uint32_t threads : {2u, 4u}) {
    const WfRun parallel = RunWf(db_, cat_, query(), threads);
    EXPECT_EQ(parallel.rows, serial.rows) << "threads=" << threads;
    EXPECT_EQ(parallel.ag_pairs, serial.ag_pairs) << "threads=" << threads;
  }
}

// A workload big enough that every level's frontier spans many morsels,
// so real cross-thread sharding (not the inline fallback) is exercised.
TEST(ParallelEquivalenceTest, ChainBlowupSpansManyMorsels) {
  Database db = MakeChainBlowupGraph(600, 600, /*noise=*/50);
  Catalog cat = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }", db);
  ASSERT_TRUE(q.ok());

  const WfRun serial = RunWf(db, cat, *q, 1);
  EXPECT_EQ(serial.rows.size(), 600u * 600u);
  for (uint32_t threads : {2u, 4u}) {
    const WfRun parallel = RunWf(db, cat, *q, threads);
    EXPECT_EQ(parallel.rows.size(), serial.rows.size());
    EXPECT_EQ(parallel.rows, serial.rows) << "threads=" << threads;
    EXPECT_EQ(parallel.ag_pairs, serial.ag_pairs) << "threads=" << threads;
  }
}

// Randomized graphs and random connected queries, acyclic and cyclic:
// identical embedding sets and identical |AG| for threads in {1, 2, 4}.
TEST(ParallelEquivalenceTest, RandomInstancesAgreeAcrossThreadCounts) {
  Rng rng(20260730);
  int cyclic_seen = 0, acyclic_seen = 0;
  for (int trial = 0; trial < 12; ++trial) {
    Database db = MakeRandomGraph(40, 3, 420, 9000 + trial);
    Catalog cat = Catalog::Build(db.store());
    QueryGraph q = MakeRandomQuery(rng, 2 + rng.Uniform(4), 5, 3);
    (IsAcyclic(q) ? acyclic_seen : cyclic_seen) += 1;

    const WfRun serial = RunWf(db, cat, q, 1);
    for (uint32_t threads : {2u, 4u}) {
      const WfRun parallel = RunWf(db, cat, q, threads);
      EXPECT_EQ(parallel.rows, serial.rows)
          << "trial " << trial << " threads " << threads;
      EXPECT_EQ(parallel.ag_pairs, serial.ag_pairs)
          << "trial " << trial << " threads " << threads;
    }
  }
  // Both planner paths must have been exercised.
  EXPECT_GT(cyclic_seen, 0);
  EXPECT_GT(acyclic_seen, 0);
}

// The bushy phase-2 executor parallelizes its probe and emit loops; its
// intermediates are bit-identical to the serial run, so the embedding
// set must match at every thread count.
TEST(ParallelEquivalenceTest, BushyExecutorAgreesAcrossThreadCounts) {
  Rng rng(555);
  WireframeOptions bushy;
  bushy.bushy_phase2 = true;
  for (int trial = 0; trial < 6; ++trial) {
    Database db = MakeRandomGraph(30, 3, 300, 4000 + trial);
    Catalog cat = Catalog::Build(db.store());
    QueryGraph q = MakeRandomQuery(rng, 3 + rng.Uniform(3), 5, 3);

    const WfRun serial = RunWf(db, cat, q, 1, bushy);
    for (uint32_t threads : {2u, 4u}) {
      const WfRun parallel = RunWf(db, cat, q, threads, bushy);
      EXPECT_EQ(parallel.rows, serial.rows)
          << "trial " << trial << " threads " << threads;
    }
  }
}

// The hash-join baseline's parallel build side (Table-1 fairness).
TEST(ParallelEquivalenceTest, HashJoinBaselineAgreesAcrossThreadCounts) {
  Database blowup = MakeChainBlowupGraph(300, 300, /*noise=*/30);
  Catalog blowup_cat = Catalog::Build(blowup.store());
  auto chain = SparqlParser::ParseAndBind(
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }", blowup);
  ASSERT_TRUE(chain.ok());
  const auto serial_chain = RunEngine("PG", blowup, blowup_cat, *chain, 1);
  EXPECT_EQ(RunEngine("PG", blowup, blowup_cat, *chain, 4), serial_chain);

  Rng rng(31337);
  for (int trial = 0; trial < 6; ++trial) {
    Database db = MakeRandomGraph(30, 3, 360, 7000 + trial);
    Catalog cat = Catalog::Build(db.store());
    QueryGraph q = MakeRandomQuery(rng, 2 + rng.Uniform(3), 5, 3);
    const auto serial = RunEngine("PG", db, cat, q, 1);
    EXPECT_EQ(RunEngine("PG", db, cat, q, 4), serial) << "trial " << trial;
  }
}

// LIMIT-style consumers: a declined row must stop every worker, and the
// inner sink must never see more rows than it accepted.
TEST(ParallelEquivalenceTest, LimitSinkStopsParallelEnumeration) {
  Database db = MakeChainBlowupGraph(200, 200, /*noise=*/0);
  Catalog cat = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }", db);
  ASSERT_TRUE(q.ok());
  WireframeEngine engine;
  LimitSink sink(10);
  EngineOptions options;
  ThreadPool pool(4);
  options.pool = &pool;
  auto stats = engine.Run(db, cat, *q, options, &sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(sink.count(), 10u);
}

// Timeouts must surface promptly from inside the parallel loops.
TEST(ParallelEquivalenceTest, ExpiredDeadlineTimesOutInParallel) {
  Database db = MakeChainBlowupGraph(400, 400, /*noise=*/20);
  Catalog cat = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }", db);
  ASSERT_TRUE(q.ok());
  WireframeEngine engine;
  CountingSink sink;
  EngineOptions options;
  ThreadPool pool(4);
  options.pool = &pool;
  options.deadline = Deadline::AlreadyExpired();
  auto stats = engine.Run(db, cat, *q, options, &sink);
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsTimedOut()) << stats.status().ToString();
}

}  // namespace
}  // namespace wireframe
