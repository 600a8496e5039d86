// Reproduces Fig. 4: on cyclic CQs, node burnback alone leaves spurious
// edges in the answer graph; triangulation with edge burnback recovers
// the ideal AG. Checks the paper's exact example, then measures AG size
// versus the ideal across the five Table-1 diamonds.
//
// Usage: bench_fig4_cyclic [--scale=0.2] [--timeout=30] [--threads=1]
//                          [--json=<path>]

#include <iostream>

#include "benchlib/json_writer.h"
#include "catalog/catalog.h"
#include "core/wireframe.h"
#include "datagen/figures.h"
#include "datagen/yago_like.h"
#include "query/parser.h"
#include "util/flags.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

using namespace wireframe;

namespace {

struct ModeResult {
  bool ok = false;
  bool timed_out = false;  // timeout or memory-budget abort specifically
  uint64_t ag = 0;
  uint64_t embeddings = 0;
  uint64_t edge_walks = 0;
  double seconds = 0;
};

ModeResult RunMode(const Database& db, const Catalog& catalog,
                   const QueryGraph& q, bool triangulate, bool edge_burnback,
                   double timeout, ThreadPool* pool) {
  WireframeOptions options;
  options.triangulate = triangulate;
  options.edge_burnback = edge_burnback;
  WireframeEngine engine(options);
  CountingSink sink;
  EngineOptions run;
  run.deadline = Deadline::AfterSeconds(timeout);
  run.pool = pool;
  auto stats = engine.Run(db, catalog, q, run, &sink);
  ModeResult r;
  if (!stats.ok()) {
    r.timed_out = stats.status().IsTimedOut() ||
                  stats.status().code() == StatusCode::kOutOfRange;
    return r;
  }
  r.ok = true;
  r.ag = stats->ag_pairs;
  r.embeddings = stats->output_tuples;
  r.edge_walks = stats->edge_walks;
  r.seconds = stats->seconds;
  return r;
}

BenchRecord ModeRecord(const std::string& query_id, const ModeResult& r,
                       uint32_t threads) {
  BenchRecord record;
  record.engine = "WF";
  record.query = query_id;
  record.ok = r.ok;
  record.timed_out = r.timed_out;
  record.seconds = r.seconds;
  record.edge_walks = r.edge_walks;
  record.output_tuples = r.embeddings;
  record.ag_pairs = r.ag;
  record.threads = threads;
  return record;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const double timeout = flags.GetDouble("timeout", 30.0);
  ThreadPool pool(ThreadPool::ResolveThreads(
      static_cast<uint32_t>(flags.GetInt("threads", 1))));
  const uint32_t threads = pool.num_threads();
  JsonResultWriter json;

  std::cout << "=== Fig. 4: spurious edges in cyclic answer graphs ===\n\n";

  // Part 1: the paper's exact example.
  {
    Database db = MakeFig4Graph();
    Catalog catalog = Catalog::Build(db.store());
    auto q = MakeFig4Query(db);
    if (!q.ok()) return 1;
    ModeResult plain = RunMode(db, catalog, *q, false, false, timeout, &pool);
    ModeResult ideal = RunMode(db, catalog, *q, true, true, timeout, &pool);
    std::cout << "paper example: node burnback |AG| = " << plain.ag
              << " (paper: 10, incl. spurious <1,6>, <5,2>),\n"
              << "               edge burnback |iAG| = " << ideal.ag
              << " (paper: 8); embeddings = " << plain.embeddings
              << " (paper: 2)\n\n";
  }

  // Part 2: the five Table-1 diamonds at laptop scale.
  YagoLikeConfig config;
  config.scale = flags.GetDouble("scale", 0.2);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  Database db = MakeYagoLike(config);
  Catalog catalog = Catalog::Build(db.store());
  std::cout << "data: " << db.store().NumTriples() << " triples\n\n";

  TablePrinter table({"#", "query", "|AG| node-bb", "|AG| chordified",
                      "|iAG| edge-bb", "|Embeddings|", "AG/iAG"});
  std::vector<std::string> texts = Table1Queries();
  for (size_t i = 5; i < 10; ++i) {
    auto q = SparqlParser::ParseAndBind(texts[i], db);
    if (!q.ok()) return 1;
    ModeResult plain = RunMode(db, catalog, *q, false, false, timeout, &pool);
    ModeResult chord = RunMode(db, catalog, *q, true, false, timeout, &pool);
    ModeResult ideal = RunMode(db, catalog, *q, true, true, timeout, &pool);
    if (flags.Has("json")) {
      const std::string id = "T1-Q" + std::to_string(i + 1);
      json.Add(ModeRecord(id + "-nodebb", plain, threads));
      json.Add(ModeRecord(id + "-chord", chord, threads));
      json.Add(ModeRecord(id + "-edgebb", ideal, threads));
    }
    auto count = [](const ModeResult& r, uint64_t v) {
      return r.ok ? TablePrinter::FormatCount(v) : TablePrinter::Timeout();
    };
    char ratio[32] = "?";
    if (plain.ok && ideal.ok && ideal.ag > 0) {
      std::snprintf(ratio, sizeof(ratio), "%.2fx",
                    static_cast<double>(plain.ag) / ideal.ag);
    }
    table.AddRow({std::to_string(i + 1), Table1RowLabel(i).substr(0, 40),
                  count(plain, plain.ag), count(chord, chord.ag),
                  count(ideal, ideal.ag), count(plain, plain.embeddings),
                  ratio});
  }
  table.Print(std::cout);
  std::cout
      << "(paper §5: \"the resulting AGs can be significantly larger than\n"
         " the ideal, sometimes close to the number of embeddings\")\n";
  if (flags.Has("json")) json.WriteTo(flags.GetString("json", ""));
  return 0;
}
