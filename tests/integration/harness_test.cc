#include "benchlib/harness.h"

#include <sstream>

#include <gtest/gtest.h>

#include "datagen/figures.h"
#include "query/parser.h"

namespace wireframe {
namespace {

class HarnessTest : public ::testing::Test {
 protected:
  HarnessTest() : db_(MakeFig1Graph()), cat_(Catalog::Build(db_.store())) {}

  QueryGraph Chain() {
    auto q = MakeFig1Query(db_);
    EXPECT_TRUE(q.ok());
    return std::move(q).value();
  }

  Database db_;
  Catalog cat_;
};

TEST_F(HarnessTest, RunCellReportsStats) {
  BenchConfig config;
  config.repetitions = 2;
  config.timeout_seconds = 30;
  Table1Harness harness(db_, cat_, config);
  BenchCell cell = harness.RunCell(Chain(), "WF");
  EXPECT_TRUE(cell.ok);
  EXPECT_FALSE(cell.timed_out);
  EXPECT_EQ(cell.stats.output_tuples, kFig1Embeddings);
  EXPECT_EQ(cell.stats.ag_pairs, kFig1IdealAgEdges);
  EXPECT_GE(cell.seconds, 0.0);
}

TEST_F(HarnessTest, RunCellMarksExpiredDeadline) {
  BenchConfig config;
  config.repetitions = 1;
  config.timeout_seconds = -1.0;  // already expired
  Table1Harness harness(db_, cat_, config);
  // MD materializes and checks the deadline between steps, so even the
  // tiny Fig-1 instance notices the expiry.
  BenchCell cell = harness.RunCell(Chain(), "MD");
  EXPECT_FALSE(cell.ok);
  EXPECT_TRUE(cell.timed_out);
  EXPECT_FALSE(cell.error.empty());
}

TEST_F(HarnessTest, SuiteRendersEveryRowAndColumn) {
  BenchConfig config;
  config.engines = {"WF", "NJ", "PG"};
  config.repetitions = 1;
  config.timeout_seconds = 30;
  Table1Harness harness(db_, cat_, config);
  std::vector<BenchQuery> queries;
  queries.push_back({"1", "A/B/C", Chain()});
  queries.push_back({"2", "A/B/C again", Chain()});
  std::ostringstream os;
  harness.RunSuite(queries, os);
  const std::string out = os.str();
  for (const char* needle :
       {"WF", "NJ", "PG", "|AG|", "|Embeddings|", "A/B/C", "12", "8"}) {
    EXPECT_NE(out.find(needle), std::string::npos) << needle;
  }
}

// The harness lends its one pool to every cell: the engines that use it
// record its size, the serial baselines record 1, and every engine
// reports the same embeddings.
TEST_F(HarnessTest, CellsRecordThePoolSizeTheyRanWith) {
  BenchConfig config;
  config.repetitions = 1;
  config.timeout_seconds = 30;
  config.threads = 2;
  Table1Harness harness(db_, cat_, config);
  for (const std::string& engine : AllEngineNames()) {
    BenchCell cell = harness.RunCell(Chain(), engine);
    ASSERT_TRUE(cell.ok) << engine << ": " << cell.error;
    const bool pooled = engine == "WF" || engine == "PG";
    EXPECT_EQ(cell.threads, pooled ? 2u : 1u) << engine;
    EXPECT_EQ(cell.stats.output_tuples, kFig1Embeddings) << engine;
  }
}

TEST_F(HarnessTest, UnknownEngineChecks) {
  BenchConfig config;
  Table1Harness harness(db_, cat_, config);
  EXPECT_DEATH(harness.RunCell(Chain(), "XX"), "unknown engine");
}

TEST(ParseThreadListTest, ResolvesZeroAndDropsRepeats) {
  const uint32_t cores = ThreadPool::ResolveThreads(0);
  EXPECT_EQ(ParseThreadList("1,2,1"), (std::vector<uint32_t>{1, 2}));
  const std::vector<uint32_t> swept =
      ParseThreadList("1,0," + std::to_string(cores));
  EXPECT_EQ(swept.back(), cores);
  EXPECT_EQ(swept.size(), cores == 1 ? 1u : 2u);
}

TEST(ParseThreadListTest, RejectsAnythingButNonNegativeIntegers) {
  for (const char* bad : {"-1", "1,-1", "2.5", "", "1,,2", "x", "+3",
                          "4294967296"}) {
    EXPECT_EXIT(ParseThreadList(bad), ::testing::ExitedWithCode(2),
                "--threads_list")
        << bad;
  }
}

}  // namespace
}  // namespace wireframe
