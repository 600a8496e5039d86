// Reproduces Fig. 3: the two-phase cost-based optimizer on the snowflake
// CQ_S. Shows the Edgifier's DP-chosen answer-graph plan and the greedy
// embedding plan, then quantifies plan quality: the DP plan's *actual*
// edge walks versus random and adversarial (reversed-DP) orders.
//
// Usage: bench_fig3_planner [--scale=0.2] [--orders=40]
//                            [--query=0 (Fig.3) | 1..10 (Table 1 row)]

#include <algorithm>
#include <iostream>

#include "catalog/catalog.h"
#include "catalog/estimator.h"
#include "core/generator.h"
#include "core/wireframe.h"
#include "datagen/yago_like.h"
#include "planner/cost_model.h"
#include "planner/edgifier.h"
#include "query/parser.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/table_printer.h"
#include "util/timer.h"

using namespace wireframe;

namespace {

/// Executes one order and reports real edge walks + time.
struct RealCost {
  uint64_t walks = 0;
  double seconds = 0;
  bool ok = false;
};

RealCost Execute(const Database& db, const Catalog& catalog,
                 const QueryGraph& q, const std::vector<uint32_t>& order) {
  AgPlan plan;
  plan.edge_order = order;
  AgGenerator gen(db, catalog);
  EngineOptions run;
  run.deadline = Deadline::AfterSeconds(30);
  Stopwatch watch;
  auto result = gen.Generate(q, plan, GeneratorOptions{}, run);
  RealCost cost;
  if (!result.ok()) return cost;
  cost.ok = true;
  cost.walks = result->edge_walks;
  cost.seconds = watch.ElapsedSeconds();
  return cost;
}

std::vector<uint32_t> RandomConnectedOrder(const QueryGraph& q, Rng& rng) {
  std::vector<uint32_t> order;
  std::vector<bool> used(q.NumEdges(), false);
  std::vector<bool> bound(q.NumVars(), false);
  while (order.size() < q.NumEdges()) {
    std::vector<uint32_t> frontier;
    for (uint32_t e = 0; e < q.NumEdges(); ++e) {
      if (used[e]) continue;
      if (order.empty() || bound[q.Edge(e).src] || bound[q.Edge(e).dst]) {
        frontier.push_back(e);
      }
    }
    uint32_t pick = frontier[rng.Uniform(frontier.size())];
    used[pick] = true;
    bound[q.Edge(pick).src] = true;
    bound[q.Edge(pick).dst] = true;
    order.push_back(pick);
  }
  return order;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  YagoLikeConfig config;
  config.scale = flags.GetDouble("scale", 0.2);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const int num_orders = static_cast<int>(flags.GetInt("orders", 40));
  // Default: the exact CQ_S of Fig. 3; --query=1..10 picks a Table-1 row.
  const int64_t query_flag = flags.GetInt("query", 0);

  std::cout << "=== Fig. 3: the two-phase cost-based optimizer ===\n\n";
  Database db = MakeYagoLike(config);
  Catalog catalog = Catalog::Build(db.store());
  std::cout << "data: " << db.store().NumTriples() << " triples\n\n";

  const std::string text = query_flag >= 1
                               ? Table1Queries()[query_flag - 1]
                               : Fig3Query();
  auto q = SparqlParser::ParseAndBind(text, db);
  if (!q.ok()) {
    std::cerr << q.status().ToString() << "\n";
    return 1;
  }

  // Show both plans, as the figure does.
  WireframeEngine engine;
  auto explain = engine.Explain(db, catalog, *q);
  if (explain.ok()) std::cout << *explain << "\n";
  {
    CountingSink sink;
    EngineOptions options;
    options.deadline = Deadline::AfterSeconds(60);
    auto detail = engine.RunDetailed(db, catalog, *q, options, &sink);
    if (detail.ok()) {
      auto label = [&db](LabelId p) { return db.labels().Term(p); };
      std::cout << detail->embedding_plan.ToString(*q, label) << "\n";
    }
  }

  // Plan quality: DP order vs random connected orders (real walks).
  CardinalityEstimator est(catalog);
  Edgifier edgifier(*q, est);
  auto dp_plan = edgifier.PlanEdgeOrder();
  if (!dp_plan.ok()) return 1;
  RealCost dp = Execute(db, catalog, *q, dp_plan->edge_order);

  Rng rng(1234);
  uint64_t best_random = UINT64_MAX, worst_random = 0, sum_random = 0;
  int ok_orders = 0;
  for (int i = 0; i < num_orders; ++i) {
    RealCost c =
        Execute(db, catalog, *q, RandomConnectedOrder(*q, rng));
    if (!c.ok) continue;
    ++ok_orders;
    best_random = std::min(best_random, c.walks);
    worst_random = std::max(worst_random, c.walks);
    sum_random += c.walks;
  }

  TablePrinter table({"order", "edge walks", "vs DP"});
  auto ratio = [&](uint64_t walks) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fx",
                  dp.walks ? static_cast<double>(walks) / dp.walks : 0.0);
    return std::string(buf);
  };
  table.AddRow({"Edgifier DP", TablePrinter::FormatCount(dp.walks), "1.00x"});
  if (ok_orders > 0) {
    table.AddRow({"best random", TablePrinter::FormatCount(best_random),
                  ratio(best_random)});
    table.AddRow({"mean random",
                  TablePrinter::FormatCount(sum_random / ok_orders),
                  ratio(sum_random / ok_orders)});
    table.AddRow({"worst random", TablePrinter::FormatCount(worst_random),
                  ratio(worst_random)});
  }
  table.Print(std::cout);
  std::cout << "(" << ok_orders << "/" << num_orders
            << " random orders finished; DP plan executed in "
            << TablePrinter::FormatSeconds(dp.seconds) << " s)\n";
  return 0;
}
