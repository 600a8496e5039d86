// Reproduces Table 1, rows 6-10 (diamond-shaped cyclic CQ_D queries):
// query execution time per system plus |AG| (not necessarily ideal — the
// paper's cyclic runs use node burnback only) and |Embeddings|.
//
// Paper reference (YAGO2s, 300 s timeout):
//   row  6: PG *  WF 103  VT *    MD *  NJ *    |AG| 833,355  |E| 58,785,214
//   row  7: PG *  WF 118  VT 38   MD *  NJ 127  |AG|  22,555  |E|    100,160
//   row  8: PG *  WF  20  VT 110  MD *  NJ 213  |AG|  68,720  |E|    106,214
//   row  9: PG *  WF  18  VT 22   MD *  NJ 139  |AG|  87,459  |E|     22,216
//   row 10: PG *  WF  53  VT 126  MD *  NJ *    |AG|  52,975  |E|     99,891
// Shape target: WF completes everything; materializing engines (PG, MD)
// blow up on the cyclic many-many joins; pipelined engines (VT, NJ) are
// competitive on selective diamonds only.
//
// WF here runs the paper's experimental configuration: triangulated, node
// burnback, NO edge burnback (see bench_ablation_burnback for the rest).
//
// Usage: bench_table1_diamond [--scale=2.0] [--timeout=20] [--reps=2]
//                             [--threads=1] [--engines=PG,WF,VT,MD,NJ]
//                             [--json=<path>]

#include <iostream>

#include "benchlib/harness.h"
#include "catalog/catalog.h"
#include "datagen/yago_like.h"
#include "query/parser.h"
#include "util/flags.h"
#include "util/timer.h"

using namespace wireframe;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  YagoLikeConfig config;
  config.scale = flags.GetDouble("scale", 2.0);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  std::cout << "=== Table 1 (rows 6-10): diamond-shaped cyclic queries ===\n";
  Stopwatch watch;
  Database db = MakeYagoLike(config);
  Catalog catalog = Catalog::Build(db.store());
  std::cout << "data: " << db.store().NumTriples() << " triples (scale "
            << config.scale << ", built in " << watch.ElapsedMillis()
            << " ms)\n\n";

  BenchConfig bench;
  bench.timeout_seconds = flags.GetDouble("timeout", 20.0);
  bench.repetitions = static_cast<int>(flags.GetInt("reps", 2));
  bench.verbose = flags.GetBool("verbose", false);
  bench.threads = static_cast<uint32_t>(flags.GetInt("threads", 1));
  if (flags.Has("engines")) {
    bench.engines = ParseEngineList(flags.GetString("engines", ""));
  }
  JsonResultWriter json;
  if (flags.Has("json")) bench.json = &json;
  Table1Harness harness(db, catalog, bench);

  std::vector<BenchQuery> queries;
  std::vector<std::string> texts = Table1Queries();
  for (size_t i = 5; i < 10; ++i) {
    auto q = SparqlParser::ParseAndBind(texts[i], db);
    if (!q.ok()) {
      std::cerr << "query " << i << ": " << q.status().ToString() << "\n";
      return 1;
    }
    queries.push_back(
        {std::to_string(i + 1), Table1RowLabel(i), std::move(q).value()});
  }
  harness.RunSuite(queries, std::cout);
  std::cout << "('*' = timed out after " << bench.timeout_seconds
            << " s or exceeded the intermediate-result memory budget)\n";
  if (flags.Has("json")) json.WriteTo(flags.GetString("json", ""));
  return 0;
}
