// Ablation: the one-step lookahead existence filter in edge extension.
// Lookahead rejects, at extension time, pairs whose fresh endpoint has no
// data edge for some future incident pattern — pairs that are certain to
// burn back later. It never changes the final AG or the embeddings; it
// trades one index probe per candidate for the add-then-burn churn.
// This bench quantifies the trade on all ten Table-1 queries.
//
// Usage: bench_ablation_lookahead [--scale=1.0] [--timeout=30]

#include <iostream>

#include "catalog/catalog.h"
#include "catalog/estimator.h"
#include "core/generator.h"
#include "core/wireframe.h"
#include "datagen/yago_like.h"
#include "planner/edgifier.h"
#include "query/parser.h"
#include "query/shape.h"
#include "util/flags.h"
#include "util/table_printer.h"
#include "util/timer.h"

using namespace wireframe;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const double timeout = flags.GetDouble("timeout", 30.0);
  YagoLikeConfig config;
  config.scale = flags.GetDouble("scale", 1.0);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  std::cout << "=== Ablation: lookahead existence filter (phase 1) ===\n";
  Database db = MakeYagoLike(config);
  Catalog catalog = Catalog::Build(db.store());
  std::cout << "data: " << db.store().NumTriples() << " triples\n\n";

  TablePrinter table({"#", "mode", "phase1 (s)", "walks", "burned", "|AG|"});
  std::vector<std::string> texts = Table1Queries();
  for (size_t i = 0; i < texts.size(); ++i) {
    auto q = SparqlParser::ParseAndBind(texts[i], db);
    if (!q.ok()) return 1;
    CardinalityEstimator est(catalog);
    Edgifier edgifier(*q, est);
    auto plan = edgifier.PlanEdgeOrder();
    if (!plan.ok()) return 1;
    if (!IsAcyclic(*q)) {
      Triangulator tri(*q, est);
      auto chords = tri.Triangulate(AnalyzeShape(*q));
      if (!chords.ok()) return 1;
      plan->chords = std::move(chords->chords);
      plan->base_triangles = std::move(chords->base_triangles);
      plan->base_triangle_closing_edge =
          std::move(chords->base_triangle_closing_edge);
    }

    uint64_t ag_with = 0, ag_without = 0;
    for (bool lookahead : {false, true}) {
      GeneratorOptions options;
      options.lookahead = lookahead;
      EngineOptions run;
      run.deadline = Deadline::AfterSeconds(timeout);
      AgGenerator gen(db, catalog);
      Stopwatch watch;
      auto result = gen.Generate(*q, *plan, options, run);
      if (!result.ok()) {
        table.AddRow({std::to_string(i + 1),
                      lookahead ? "lookahead" : "plain",
                      TablePrinter::Timeout(), "", "", ""});
        continue;
      }
      const uint64_t ag = result->ag->TotalQueryEdgePairs();
      (lookahead ? ag_with : ag_without) = ag;
      table.AddRow({std::to_string(i + 1),
                    lookahead ? "lookahead" : "plain",
                    TablePrinter::FormatSeconds(watch.ElapsedSeconds()),
                    TablePrinter::FormatCount(result->edge_walks),
                    TablePrinter::FormatCount(result->pairs_burned),
                    TablePrinter::FormatCount(ag)});
    }
    if (ag_with != ag_without) {
      std::cerr << "BUG: lookahead changed the answer graph on query "
                << (i + 1) << "\n";
      return 1;
    }
  }
  table.Print(std::cout);
  std::cout << "(identical |AG| per query: the filter is sound; it only\n"
               " avoids adding pairs that were guaranteed to burn)\n";
  return 0;
}
