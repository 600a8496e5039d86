// Reproduces Table 1, rows 1-5 (snowflake-shaped CQ_S queries): query
// execution time per system — PG / WF / VT / MD / NJ — plus |iAG| and
// |Embeddings|, on the synthetic YAGO-like graph.
//
// Paper reference (YAGO2s, 242M triples, 300 s timeout):
//   row 1:  PG 51   WF 16  VT *    MD *  NJ *   |iAG|  1,660  |E| 2,931,986
//   row 2:  PG 88   WF  5  VT 151  MD *  NJ *   |iAG|    993  |E| 2,847,184
//   row 3:  PG 69   WF 12  VT *    MD *  NJ *   |iAG|  1,140  |E| 2,670,339
//   row 4:  PG 78   WF  8  VT *    MD *  NJ *   |iAG|  3,317  |E| 2,569,017
//   row 5:  PG 42   WF 12  VT *    MD *  NJ *   |iAG| 10,761  |E| 1,306,406
// The reproduction target is the *shape*: WF fastest by a wide margin,
// materializing engines struggling or timing out, |iAG| orders of
// magnitude below |Embeddings|. Absolute numbers differ (laptop-scale
// synthetic data, in-process baselines).
//
// Usage: bench_table1_snowflake [--scale=2.0] [--timeout=20] [--reps=2]
//                               [--threads=1] [--engines=PG,WF,VT,MD,NJ]
//                               [--json=<path>]

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

  std::cout << "=== Table 1 (rows 1-5): snowflake-shaped queries ===\n";
  Stopwatch watch;
  Database db = MakeYagoLike(config);
  Catalog catalog = Catalog::Build(db.store());
  std::cout << "data: " << db.store().NumTriples() << " triples, "
            << db.store().NumPredicates() << " predicates (scale "
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
  for (size_t i = 0; i < 5; ++i) {
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
            << " s or exceeded the intermediate-result memory budget,\n"
               " as in the paper's 300 s protocol)\n";
  if (flags.Has("json")) json.WriteTo(flags.GetString("json", ""));
  return 0;
}
