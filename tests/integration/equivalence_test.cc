#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "core/wireframe.h"
#include "datagen/synthetic.h"
#include "exec/engine.h"
#include "query/shape.h"
#include "query/templates.h"
#include "util/thread_pool.h"

namespace wireframe {
namespace {

/// Sorted multiset of result rows (bindings are total, so rows are
/// distinct by construction and a set suffices).
std::set<std::vector<NodeId>> RunToSet(Engine* engine, const Database& db,
                                       const Catalog& cat,
                                       const QueryGraph& q,
                                       ThreadPool* pool = nullptr) {
  CollectingSink sink;
  EngineOptions options;
  options.pool = pool;
  auto stats = engine->Run(db, cat, q, options, &sink);
  EXPECT_TRUE(stats.ok()) << engine->name() << ": "
                          << stats.status().ToString();
  return {sink.rows().begin(), sink.rows().end()};
}

// Property: every engine (the Wireframe two-phase evaluator and all four
// baseline regimes) computes exactly the same embedding set on random
// graphs and random connected queries, acyclic and cyclic alike.
TEST(EquivalenceTest, AllEnginesAgreeOnRandomInstances) {
  Rng rng(4242);
  int cyclic_seen = 0, acyclic_seen = 0;
  for (int trial = 0; trial < 40; ++trial) {
    Database db = MakeRandomGraph(24, 3, 140, 1000 + trial);
    Catalog cat = Catalog::Build(db.store());
    QueryGraph q = MakeRandomQuery(rng, 2 + rng.Uniform(4), 5, 3);
    if (IsAcyclic(q)) {
      ++acyclic_seen;
    } else {
      ++cyclic_seen;
    }

    auto oracle = MakeEngine("NJ");
    std::set<std::vector<NodeId>> expected =
        RunToSet(oracle.get(), db, cat, q);
    for (const char* name : {"WF", "PG", "VT", "MD"}) {
      auto engine = MakeEngine(name);
      std::set<std::vector<NodeId>> got = RunToSet(engine.get(), db, cat, q);
      EXPECT_EQ(got, expected)
          << "trial " << trial << ": " << name << " disagrees with oracle ("
          << got.size() << " vs " << expected.size() << " rows)";
    }
  }
  // The shape generator must exercise both planner paths.
  EXPECT_GT(cyclic_seen, 3);
  EXPECT_GT(acyclic_seen, 3);
}

// Property: Wireframe's three cyclic configurations (plain, chordified,
// chordified + edge burnback) agree with the oracle.
TEST(EquivalenceTest, WireframeCyclicModesAgree) {
  Rng rng(777);
  int checked = 0;
  for (int trial = 0; trial < 60 && checked < 12; ++trial) {
    QueryGraph q = MakeRandomQuery(rng, 4, 4, 3);
    if (IsAcyclic(q)) continue;
    ++checked;
    Database db = MakeRandomGraph(20, 3, 160, 31 + trial);
    Catalog cat = Catalog::Build(db.store());

    auto oracle = MakeEngine("NJ");
    std::set<std::vector<NodeId>> expected =
        RunToSet(oracle.get(), db, cat, q);

    for (int mode = 0; mode < 3; ++mode) {
      WireframeOptions options;
      options.triangulate = mode >= 1;
      options.edge_burnback = mode == 2;
      WireframeEngine engine(options);
      std::set<std::vector<NodeId>> got =
          RunToSet(&engine, db, cat, q);
      EXPECT_EQ(got, expected) << "trial " << trial << " mode " << mode;
    }
  }
  EXPECT_GE(checked, 12);
}

// Denser graphs stress burnback cascades harder.
TEST(EquivalenceTest, DenseGraphAgreement) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    Database db = MakeRandomGraph(12, 2, 200, 500 + trial);
    Catalog cat = Catalog::Build(db.store());
    QueryGraph q = MakeRandomQuery(rng, 4, 4, 2);
    auto oracle = MakeEngine("NJ");
    auto wf = MakeEngine("WF");
    EXPECT_EQ(RunToSet(wf.get(), db, cat, q),
              RunToSet(oracle.get(), db, cat, q))
        << "trial " << trial;
  }
}

// Phase 2 enumerates the skeleton and writes the leaves as a product of
// spans. A snowflake has a three-edge skeleton and six leaves; random
// label choices give empty, skewed and wide leaf spans alike.
TEST(EquivalenceTest, SnowflakeLeafProductsMatchOracle) {
  Rng rng(2121);
  ThreadPool pool(4);
  uint64_t rows_seen = 0;
  for (int trial = 0; trial < 8; ++trial) {
    Database db = MakeRandomGraph(30 + 5 * trial, 3, 160, 9100 + trial);
    Catalog cat = Catalog::Build(db.store());
    std::vector<LabelId> labels(9);
    for (LabelId& label : labels) {
      label = static_cast<LabelId>(rng.Uniform(3));
    }
    QueryGraph q = SnowflakeTemplate().Instantiate(labels);
    auto oracle = MakeEngine("NJ");
    const std::set<std::vector<NodeId>> expected =
        RunToSet(oracle.get(), db, cat, q);
    rows_seen += expected.size();
    auto wf = MakeEngine("WF");
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      EXPECT_EQ(RunToSet(wf.get(), db, cat, q, p), expected)
          << "trial " << trial << (p == nullptr ? " inline" : " pool(4)");
    }
  }
  EXPECT_GT(rows_seen, 0u);
}

// A diamond x-e-y-z with a pendant edge on x and one on y: the 4-cycle
// is the skeleton (closed by a chord under triangulation), and the two
// pendant variables are a leaf product per skeleton binding. Chords,
// skeleton intersections and leaf products meet in one query.
TEST(EquivalenceTest, DiamondWithPendantsMatchesOracle) {
  ThreadPool pool(4);
  uint64_t rows_seen = 0;
  for (int trial = 0; trial < 6; ++trial) {
    Database db = MakeRandomGraph(16, 2, 150, 6600 + trial);
    Catalog cat = Catalog::Build(db.store());
    QueryGraph q;
    const VarId x = q.AddVar("x"), e = q.AddVar("e");
    const VarId y = q.AddVar("y"), z = q.AddVar("z");
    const VarId a = q.AddVar("a"), b = q.AddVar("b");
    q.AddEdge(x, 0, e);
    q.AddEdge(x, 1, z);
    q.AddEdge(e, 1, y);
    q.AddEdge(y, 0, z);
    q.AddEdge(x, 1, a);
    q.AddEdge(b, 0, y);
    auto oracle = MakeEngine("NJ");
    const std::set<std::vector<NodeId>> expected =
        RunToSet(oracle.get(), db, cat, q);
    rows_seen += expected.size();
    for (const bool triangulate : {true, false}) {
      WireframeOptions options;
      options.triangulate = triangulate;
      WireframeEngine engine(options);
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        EXPECT_EQ(RunToSet(&engine, db, cat, q, p), expected)
            << "trial " << trial << " triangulate " << triangulate
            << (p == nullptr ? " inline" : " pool(4)");
      }
    }
  }
  EXPECT_GT(rows_seen, 0u);
}

}  // namespace
}  // namespace wireframe
