#include <iterator>
#include <sstream>

#include <gtest/gtest.h>

#include "benchlib/harness.h"
#include "datagen/yago_like.h"
#include "query/parser.h"
#include "util/thread_pool.h"

namespace wireframe {
namespace {

// End-to-end smoke of the Table 1 pipeline at test scale: generate the
// YAGO-like graph, bind all ten queries, run every engine through the
// harness, and check the report renders.
class Table1SmokeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    YagoLikeConfig config;
    config.scale = 0.02;
    config.seed = 7;
    db_ = new Database(MakeYagoLike(config));
    cat_ = new Catalog(Catalog::Build(db_->store()));
  }
  static void TearDownTestSuite() {
    delete cat_;
    cat_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  static Database* db_;
  static Catalog* cat_;
};

Database* Table1SmokeTest::db_ = nullptr;
Catalog* Table1SmokeTest::cat_ = nullptr;

TEST_F(Table1SmokeTest, WireframeRunsAllTenQueries) {
  std::vector<std::string> queries = Table1Queries();
  auto wf = MakeEngine("WF");
  for (size_t i = 0; i < queries.size(); ++i) {
    auto q = SparqlParser::ParseAndBind(queries[i], *db_);
    ASSERT_TRUE(q.ok()) << i;
    CountingSink sink;
    EngineOptions options;
    options.deadline = Deadline::AfterSeconds(30);
    auto stats = wf->Run(*db_, *cat_, *q, options, &sink);
    ASSERT_TRUE(stats.ok()) << "query " << i << ": "
                            << stats.status().ToString();
  }
}

TEST_F(Table1SmokeTest, WireframeAgreesWithOracleOnAllTenQueries) {
  std::vector<std::string> queries = Table1Queries();
  auto wf = MakeEngine("WF");
  auto nj = MakeEngine("NJ");
  for (size_t i = 0; i < queries.size(); ++i) {
    auto q = SparqlParser::ParseAndBind(queries[i], *db_);
    ASSERT_TRUE(q.ok());
    CountingSink wf_sink, nj_sink;
    EngineOptions options;
    options.deadline = Deadline::AfterSeconds(60);
    auto wf_stats = wf->Run(*db_, *cat_, *q, options, &wf_sink);
    auto nj_stats = nj->Run(*db_, *cat_, *q, options, &nj_sink);
    ASSERT_TRUE(wf_stats.ok()) << i;
    ASSERT_TRUE(nj_stats.ok()) << i;
    EXPECT_EQ(wf_sink.count(), nj_sink.count()) << "query " << i;
  }
}

TEST_F(Table1SmokeTest, SnowflakesFactorizeWell) {
  // At least one snowflake must show |AG| substantially below
  // |embeddings| even at the tiny test scale.
  std::vector<std::string> queries = Table1Queries();
  auto wf = MakeEngine("WF");
  bool found_factorization_win = false;
  for (size_t i = 0; i < 5; ++i) {
    auto q = SparqlParser::ParseAndBind(queries[i], *db_);
    ASSERT_TRUE(q.ok());
    CountingSink sink;
    EngineOptions options;
    options.deadline = Deadline::AfterSeconds(60);
    auto stats = wf->Run(*db_, *cat_, *q, options, &sink);
    ASSERT_TRUE(stats.ok());
    if (stats->output_tuples > 4 * stats->ag_pairs) {
      found_factorization_win = true;
    }
  }
  EXPECT_TRUE(found_factorization_win);
}

TEST_F(Table1SmokeTest, PhaseOneCountsArePinned) {
  // Absolute phase-1 counters of the WF engine on all ten queries, at
  // this suite's scale and seed, inline and on a lent four-worker pool
  // (morsel-parallel extension and burnback drain). Burnback is a
  // confluent fixpoint, so |AG|, pairs burned and rows do not depend on
  // the answer graph's internal layout, on candidate order or on the
  // pool; edge walks charge one per scanned neighbor. A change to any of
  // them is a behaviour change.
  struct Pinned {
    uint64_t edge_walks;
    uint64_t ag_pairs;
    uint64_t pairs_burned;
    uint64_t output_tuples;
  };
  const Pinned expected[] = {
      {866, 302, 7, 3407},   {1506, 72, 93, 172},   {30, 0, 0, 0},
      {1554, 27, 119, 220},  {3050, 347, 373, 1072}, {4173, 486, 348, 143},
      {1965, 586, 151, 113}, {2146, 138, 298, 42},   {547, 38, 54, 10},
      {816, 72, 82, 32},
  };
  std::vector<std::string> queries = Table1Queries();
  ASSERT_EQ(queries.size(), std::size(expected));
  auto wf = MakeEngine("WF");
  ThreadPool pool(4);
  for (ThreadPool* lent : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const char* path = lent == nullptr ? "inline" : "pool(4)";
    for (size_t i = 0; i < queries.size(); ++i) {
      auto q = SparqlParser::ParseAndBind(queries[i], *db_);
      ASSERT_TRUE(q.ok()) << i;
      CountingSink sink;
      EngineOptions options;
      options.deadline = Deadline::AfterSeconds(60);
      options.pool = lent;
      auto stats = wf->Run(*db_, *cat_, *q, options, &sink);
      ASSERT_TRUE(stats.ok()) << path << " query " << i;
      EXPECT_EQ(stats->edge_walks, expected[i].edge_walks)
          << path << " query " << i;
      EXPECT_EQ(stats->ag_pairs, expected[i].ag_pairs)
          << path << " query " << i;
      EXPECT_EQ(stats->pairs_burned, expected[i].pairs_burned)
          << path << " query " << i;
      EXPECT_EQ(stats->output_tuples, expected[i].output_tuples)
          << path << " query " << i;
    }
  }
}

TEST_F(Table1SmokeTest, HarnessRendersTable) {
  BenchConfig config;
  config.engines = {"WF", "NJ"};
  config.timeout_seconds = 30;
  config.repetitions = 1;
  Table1Harness harness(*db_, *cat_, config);

  std::vector<BenchQuery> bench_queries;
  std::vector<std::string> queries = Table1Queries();
  for (size_t i : {size_t{1}, size_t{7}}) {  // one snowflake, one diamond
    auto q = SparqlParser::ParseAndBind(queries[i], *db_);
    ASSERT_TRUE(q.ok());
    bench_queries.push_back(
        {std::to_string(i + 1), Table1RowLabel(i), std::move(q).value()});
  }
  std::ostringstream os;
  harness.RunSuite(bench_queries, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("|AG|"), std::string::npos);
  EXPECT_NE(out.find("|Embeddings|"), std::string::npos);
  EXPECT_NE(out.find("WF"), std::string::npos);
}

TEST_F(Table1SmokeTest, HarnessMarksTimeouts) {
  BenchConfig config;
  config.engines = {"MD"};
  config.timeout_seconds = 0.0;  // expires immediately
  config.repetitions = 1;
  Table1Harness harness(*db_, *cat_, config);
  auto q = SparqlParser::ParseAndBind(Table1Queries()[0], *db_);
  ASSERT_TRUE(q.ok());
  BenchCell cell = harness.RunCell(*q, "MD");
  EXPECT_FALSE(cell.ok);
  EXPECT_TRUE(cell.timed_out);
}

}  // namespace
}  // namespace wireframe
