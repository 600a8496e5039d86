#include "core/generator.h"

#include <gtest/gtest.h>

#include "catalog/estimator.h"
#include "datagen/figures.h"
#include "datagen/synthetic.h"
#include "planner/edgifier.h"
#include "query/parser.h"
#include "testutil/fixtures.h"

namespace wireframe {
namespace {

AgPlan PlanFor(const QueryGraph& q, const Catalog& cat) {
  CardinalityEstimator est(cat);
  Edgifier edgifier(q, est);
  auto plan = edgifier.PlanEdgeOrder();
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return std::move(plan).value();
}

class GeneratorFig1Test : public testutil::Fig1Fixture {};

TEST_F(GeneratorFig1Test, ReachesTheIdealAnswerGraph) {
  AgGenerator gen(db_, cat_);
  auto result =
      gen.Generate(query(), PlanFor(query(), cat_), GeneratorOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ag->TotalQueryEdgePairs(), kFig1IdealAgEdges);
}

TEST_F(GeneratorFig1Test, PerEdgeContentsMatchFigure) {
  AgGenerator gen(db_, cat_);
  auto result =
      gen.Generate(query(), PlanFor(query(), cat_), GeneratorOptions{});
  ASSERT_TRUE(result.ok());
  const AnswerGraph& ag = *result->ag;
  // Edge 0 is ?w -A-> ?x: exactly {n1,n2,n3} -> n5.
  auto n = [&](const std::string& name) { return *db_.NodeOf(name); };
  EXPECT_EQ(ag.Set(0).Size(), 3u);
  EXPECT_TRUE(ag.Set(0).Contains(n("n1"), n("n5")));
  EXPECT_TRUE(ag.Set(0).Contains(n("n2"), n("n5")));
  EXPECT_TRUE(ag.Set(0).Contains(n("n3"), n("n5")));
  EXPECT_FALSE(ag.Set(0).Contains(n("n4"), n("n6")));  // burned back
  EXPECT_EQ(ag.Set(1).Size(), 1u);  // B: n5 -> n9 only
  EXPECT_TRUE(ag.Set(1).Contains(n("n5"), n("n9")));
  EXPECT_EQ(ag.Set(2).Size(), 4u);  // C: n9 -> n12..n15
  EXPECT_FALSE(ag.Set(2).Contains(n("n8"), n("n11")));  // distractor
}

TEST_F(GeneratorFig1Test, BurnbackIsIndependentOfPlanOrder) {
  AgGenerator gen(db_, cat_);
  const std::vector<std::vector<uint32_t>> orders = {
      {0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {1, 2, 0}};
  for (const auto& order : orders) {
    AgPlan plan;
    plan.edge_order = order;
    auto result = gen.Generate(query(), plan, GeneratorOptions{});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->ag->TotalQueryEdgePairs(), kFig1IdealAgEdges)
        << "order starting with " << order[0];
  }
}

TEST_F(GeneratorFig1Test, TraceShowsInterleavedExtensionAndBurnback) {
  AgGenerator gen(db_, cat_);
  GeneratorOptions options;
  std::vector<GeneratorTraceStep> steps;
  options.trace = [&](const GeneratorTraceStep& s) { steps.push_back(s); };
  AgPlan plan;
  plan.edge_order = {0, 1, 2};  // Fig. 2's order: A, then B, then C
  auto result = gen.Generate(query(), plan, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].pairs_added, 4u);   // all four A edges enter
  EXPECT_EQ(steps[0].pairs_burned, 0u);
  EXPECT_EQ(steps[1].pairs_added, 2u);   // B from {5,6}
  EXPECT_EQ(steps[1].pairs_burned, 0u);
  // Extending C from y-candidates {9,10}: 10 fails, cascade removes
  // B(6,10) and A(4,6) — the Fig. 2 "cascading node burn-back".
  EXPECT_EQ(steps[2].pairs_burned, 2u);
  EXPECT_EQ(steps[2].ag_size_after, kFig1IdealAgEdges);
}

TEST_F(GeneratorFig1Test, WalkCountIsPositiveAndBounded) {
  AgGenerator gen(db_, cat_);
  auto result =
      gen.Generate(query(), PlanFor(query(), cat_), GeneratorOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->edge_walks, 0u);
  // Never more walks than a full scan of all labels plus probes.
  EXPECT_LT(result->edge_walks, 100u);
}

TEST(GeneratorTest, EmptyLabelYieldsEmptyAg) {
  DatabaseBuilder b;
  b.Add("a", "A", "b");
  b.labels().Intern("B");  // exists in the dictionary, zero triples
  Database db = std::move(b).Build();
  Catalog cat = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?x A ?y . ?y B ?z . }", db);
  ASSERT_TRUE(q.ok());
  AgGenerator gen(db, cat);
  AgPlan plan;
  plan.edge_order = {0, 1};
  auto result = gen.Generate(*q, plan, GeneratorOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ag->TotalQueryEdgePairs(), 0u);
}

TEST(GeneratorTest, DeadlineSurfacesAsTimedOut) {
  Database db = MakeChainBlowupGraph(50, 50, 10);
  Catalog cat = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }", db);
  ASSERT_TRUE(q.ok());
  AgGenerator gen(db, cat);
  EngineOptions run;
  run.deadline = Deadline::AlreadyExpired();
  AgPlan plan;
  plan.edge_order = {0, 1, 2};
  auto result = gen.Generate(*q, plan, GeneratorOptions{}, run);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsTimedOut());
}

TEST(GeneratorTest, ChainBlowupAgIsLinearNotMultiplicative) {
  Database db = MakeChainBlowupGraph(40, 60, 25);
  Catalog cat = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }", db);
  ASSERT_TRUE(q.ok());
  AgGenerator gen(db, cat);
  auto result = gen.Generate(*q, PlanFor(*q, cat), GeneratorOptions{});
  ASSERT_TRUE(result.ok());
  // Ideal AG: 40 + 1 + 60 = 101 edges, while embeddings = 2400.
  EXPECT_EQ(result->ag->TotalQueryEdgePairs(), 101u);
  EXPECT_GT(result->pairs_burned, 0u);  // the noise branches burned
}

}  // namespace
}  // namespace wireframe
