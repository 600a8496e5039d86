// Ablation for the paper's §6 future-work question: is edge burnback
// worth it? "The additional overhead of edge burnback must be balanced
// off against the benefit of obtaining the iAG versus a larger, non-ideal
// AG." Measures, for each Table-1 diamond, phase-1 time with/without
// triangulation and edge burnback against phase-2 (defactorization) time
// over the resulting AG.
//
// Usage: bench_ablation_burnback [--scale=0.2] [--timeout=60]

#include <iostream>

#include "catalog/catalog.h"
#include "core/wireframe.h"
#include "datagen/yago_like.h"
#include "query/parser.h"
#include "util/flags.h"
#include "util/table_printer.h"

using namespace wireframe;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const double timeout = flags.GetDouble("timeout", 60.0);
  YagoLikeConfig config;
  config.scale = flags.GetDouble("scale", 0.2);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  std::cout << "=== Ablation: triangulation & edge burnback (paper §6) ===\n";
  Database db = MakeYagoLike(config);
  Catalog catalog = Catalog::Build(db.store());
  std::cout << "data: " << db.store().NumTriples() << " triples\n\n";

  struct Mode {
    const char* name;
    bool triangulate;
    bool edge_burnback;
  };
  const Mode kModes[] = {
      {"node-bb", false, false},
      {"chords", true, false},
      {"chords+edge-bb", true, true},
  };

  TablePrinter table({"#", "mode", "|AG|", "phase1 (s)", "phase2 (s)",
                      "total (s)", "burned"});
  std::vector<std::string> texts = Table1Queries();
  for (size_t i = 5; i < 10; ++i) {
    auto q = SparqlParser::ParseAndBind(texts[i], db);
    if (!q.ok()) return 1;
    for (const Mode& mode : kModes) {
      WireframeOptions options;
      options.triangulate = mode.triangulate;
      options.edge_burnback = mode.edge_burnback;
      WireframeEngine engine(options);
      CountingSink sink;
      EngineOptions run;
      run.deadline = Deadline::AfterSeconds(timeout);
      auto detail = engine.RunDetailed(db, catalog, *q, run, &sink);
      if (!detail.ok()) {
        table.AddRow({std::to_string(i + 1), mode.name,
                      TablePrinter::Timeout(), TablePrinter::Timeout(),
                      TablePrinter::Timeout(), TablePrinter::Timeout(),
                      TablePrinter::Timeout()});
        continue;
      }
      table.AddRow(
          {std::to_string(i + 1), mode.name,
           TablePrinter::FormatCount(detail->stats.ag_pairs),
           TablePrinter::FormatSeconds(detail->stats.phase1_seconds),
           TablePrinter::FormatSeconds(detail->stats.phase2_seconds),
           TablePrinter::FormatSeconds(detail->stats.seconds),
           TablePrinter::FormatCount(detail->stats.pairs_burned)});
    }
  }
  table.Print(std::cout);
  std::cout << "(trade-off: edge burnback adds phase-1 work to shrink |AG|\n"
               " and with it phase-2 work; the paper leaves this balance as\n"
               " future work — here both sides are measurable)\n";
  return 0;
}
