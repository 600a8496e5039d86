// Kernel dispatch equivalence: every query must produce bit-identical
// rows whether the span kernels run the AVX2 path or the portable
// scalar path, at every thread count. Runs on the paper fixtures plus
// the dense-square chord workload (the intersection-heavy shape the
// SIMD path exists for). When the binary was built without the AVX2 TU
// or the host lacks AVX2 the two runs collapse to the same path and the
// test degenerates to a (still valid) self-comparison.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/wireframe.h"
#include "datagen/synthetic.h"
#include "exec/engine.h"
#include "query/parser.h"
#include "testutil/fixtures.h"
#include "util/span_kernels.h"
#include "util/thread_pool.h"

namespace wireframe {
namespace {

/// Forces the scalar kernels for the lifetime of one run and restores
/// the previous override afterwards, so test order never leaks state.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool on) : prev_(ScalarKernelsForced()) {
    ForceScalarKernels(on);
  }
  ~ScopedForceScalar() { ForceScalarKernels(prev_); }

 private:
  bool prev_;
};

struct KernelRun {
  std::vector<std::vector<NodeId>> rows;
  uint64_t embeddings = 0;
  uint64_t edge_walks = 0;
};

KernelRun RunWithDispatch(const Database& db, const Catalog& cat,
                          const QueryGraph& q, bool force_scalar,
                          uint32_t threads, bool bushy) {
  ScopedForceScalar guard(force_scalar);
  WireframeOptions wf_options;
  wf_options.bushy_phase2 = bushy;
  WireframeEngine engine(wf_options);
  CollectingSink sink;
  EngineOptions options;
  ThreadPool pool(threads);
  options.pool = &pool;
  auto detail = engine.RunDetailed(db, cat, q, options, &sink);
  EXPECT_TRUE(detail.ok()) << detail.status().ToString();
  KernelRun run;
  run.rows = sink.rows();
  // Parallel morsels may interleave rows; sort so the comparison is
  // over content (duplicates included) rather than emission order.
  std::sort(run.rows.begin(), run.rows.end());
  if (detail.ok()) {
    run.embeddings = detail->stats.output_tuples;
    run.edge_walks = detail->stats.edge_walks;
  }
  return run;
}

void ExpectDispatchEquivalent(const Database& db, const Catalog& cat,
                              const QueryGraph& q, const char* what) {
  for (bool bushy : {false, true}) {
    const KernelRun scalar =
        RunWithDispatch(db, cat, q, /*force_scalar=*/true, 1, bushy);
    for (uint32_t threads : {1u, 2u, 4u}) {
      const KernelRun simd = RunWithDispatch(
          db, cat, q, /*force_scalar=*/false, threads, bushy);
      EXPECT_EQ(simd.rows, scalar.rows)
          << what << " bushy=" << bushy << " threads=" << threads;
      EXPECT_EQ(simd.embeddings, scalar.embeddings)
          << what << " bushy=" << bushy << " threads=" << threads;
      EXPECT_EQ(simd.edge_walks, scalar.edge_walks)
          << what << " bushy=" << bushy << " threads=" << threads;
    }
  }
}

using KernelFig1Test = testutil::Fig1Fixture;
using KernelFig4Test = testutil::Fig4Fixture;

TEST_F(KernelFig1Test, Fig1RowsIdenticalAcrossDispatch) {
  ExpectDispatchEquivalent(db_, cat_, query(), "fig1");
}

TEST_F(KernelFig4Test, Fig4RowsIdenticalAcrossDispatch) {
  ExpectDispatchEquivalent(db_, cat_, query(), "fig4");
}

TEST(KernelEquivalenceTest, DenseSquareRowsIdenticalAcrossDispatch) {
  Database db = MakeRandomGraph(80, 3, 6000, 777);
  Catalog cat = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . }", db);
  ASSERT_TRUE(q.ok());
  ExpectDispatchEquivalent(db, cat, *q, "dense-square");
}

TEST(KernelEquivalenceTest, RandomCyclicInstancesIdenticalAcrossDispatch) {
  Rng rng(20260808);
  for (int trial = 0; trial < 4; ++trial) {
    Database db = MakeRandomGraph(30, 3, 400, 5400 + trial);
    Catalog cat = Catalog::Build(db.store());
    QueryGraph q = MakeRandomQuery(rng, 3 + rng.Uniform(3), 5, 3);
    ExpectDispatchEquivalent(db, cat, q, "random");
  }
}

}  // namespace
}  // namespace wireframe
