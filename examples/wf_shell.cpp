// Interactive Wireframe shell: load or generate a graph, then type SPARQL
// conjunctive queries against it. Demonstrates the full public API —
// N-Triples import, binary snapshots, catalog statistics, EXPLAIN, and
// engine selection.
//
//   $ wf_shell [--scale=0.1] [--nt=FILE] [--db=FILE.wfdb]
//   $ wf_shell --connect=HOST:PORT [--service_class=NAME]
//
// With --connect the shell speaks the net/wire.h protocol to a running
// wf_server instead of executing locally: queries stream back as
// ROW-BATCH frames (node ids, not terms — the dictionary lives server
// side) and .quit sends GOODBYE and waits for the drain.
//
// Commands:
//   select ...            run a CQ on the Wireframe engine (default)
//   select (count(*) as ?c) ... / ask { ... } / ... group by ?v
//                         factorized aggregates — counted on the frozen
//                         AG without enumerating embeddings
//   .engine WF|PG|VT|MD|NJ  switch engines
//   .explain select ...   show shape + both phase plans
//   .load FILE.nt         import N-Triples (replaces current graph)
//   .open FILE.wfdb       open a binary snapshot
//   .save FILE.wfdb       write a binary snapshot
//   .stats                database and catalog summary
//   .limit N              cap printed rows (default 10)
//   .timeout SECONDS      per-query budget (default 60)
//   .help                 this text
//   .quit                 exit

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>

#include "catalog/catalog.h"
#include "core/wireframe.h"
#include "datagen/yago_like.h"
#include "exec/aggregate_executor.h"
#include "exec/engine.h"
#include "net/client.h"
#include "query/parser.h"
#include "storage/ntriples.h"
#include "storage/serializer.h"
#include "util/flags.h"
#include "util/table_printer.h"
#include "util/timer.h"

using namespace wireframe;

namespace {

struct ShellState {
  std::unique_ptr<Database> db;
  std::unique_ptr<Catalog> catalog;
  std::string engine_name = "WF";
  uint64_t print_limit = 10;
  double timeout_seconds = 60;

  void Adopt(Database fresh) {
    db = std::make_unique<Database>(std::move(fresh));
    catalog = std::make_unique<Catalog>(Catalog::Build(db->store()));
  }
};

void PrintStats(const ShellState& state) {
  std::cout << "triples    : " << state.db->store().NumTriples() << "\n"
            << "nodes      : " << state.db->store().NumNodes() << "\n"
            << "predicates : " << state.db->store().NumPredicates() << "\n"
            << "catalog    : " << state.catalog->MemoryBytes() / 1024
            << " KiB of 1-/2-gram statistics\n"
            << "engine     : " << state.engine_name << "\n";
}

/// COUNT/ASK/GROUP BY: the WF engine answers with the factorized DP
/// over the frozen AG (no embedding materialized); baseline engines
/// enumerate their rows through the folding sink for comparison.
void RunAggregateQuery(ShellState& state, const QueryGraph& query) {
  EngineOptions options;
  options.deadline = Deadline::AfterSeconds(state.timeout_seconds);
  Stopwatch watch;
  AggregateResult result;
  uint64_t ag_pairs = 0;
  if (state.engine_name == "WF") {
    WireframeEngine engine;
    CollectingAggregateSink sink;
    auto detail = engine.RunDetailed(*state.db, *state.catalog, query,
                                     options, &sink);
    if (!detail.ok()) {
      std::cout << "error: " << detail.status().ToString() << "\n";
      return;
    }
    result = detail->aggregate;
    ag_pairs = detail->stats.ag_pairs;
  } else {
    auto engine = MakeEngine(state.engine_name);
    EnumeratingAggregateSink fold(query.aggregate());
    auto stats = engine->Run(*state.db, *state.catalog, query, options,
                             &fold);
    if (!stats.ok()) {
      std::cout << "error: " << stats.status().ToString() << "\n";
      return;
    }
    result = fold.TakeResult();
  }
  const double seconds = watch.ElapsedSeconds();

  const AggregateSpec& spec = query.aggregate();
  if (spec.kind == AggregateKind::kAsk) {
    std::cout << (result.ask ? "yes" : "no");
  } else if (spec.group_var != kInvalidVar) {
    TablePrinter table(
        {"?" + query.VarName(spec.group_var),
         "?" + (spec.alias.empty() ? std::string("count") : spec.alias)});
    uint64_t shown = 0;
    for (const AggregateGroup& group : result.groups) {
      if (shown == state.print_limit) break;
      table.AddRow({state.db->nodes().Term(group.key),
                    group.value.ToString()});
      ++shown;
    }
    table.Print(std::cout);
    if (result.groups.size() > shown) {
      std::cout << "... and " << (result.groups.size() - shown)
                << " more groups\n";
    }
    std::cout << result.groups.size() << " group(s), total "
              << result.value.ToString();
  } else {
    std::cout << "?" << (spec.alias.empty() ? std::string("c") : spec.alias)
              << " = " << result.value.ToString();
  }
  std::cout << "  [" << (result.factorized ? "factorized, no enumeration"
                                           : "enumerated") << "] in "
            << TablePrinter::FormatSeconds(seconds) << " s";
  if (ag_pairs > 0) std::cout << "  |AG| = " << ag_pairs;
  std::cout << "\n";
}

void RunQuery(ShellState& state, const std::string& text) {
  auto query = SparqlParser::ParseAndBind(text, *state.db);
  if (!query.ok()) {
    std::cout << "error: " << query.status().ToString() << "\n";
    return;
  }
  if (query->aggregate().kind != AggregateKind::kNone) {
    RunAggregateQuery(state, *query);
    return;
  }
  auto engine = MakeEngine(state.engine_name);
  CollectingSink rows;
  LimitSink probe(state.print_limit);
  // Collect up to the print limit, but count everything: run twice only
  // if the user raised the limit above what fits comfortably.
  CountingSink counter;
  EngineOptions options;
  options.deadline = Deadline::AfterSeconds(state.timeout_seconds);

  Stopwatch watch;
  auto stats = engine->Run(*state.db, *state.catalog, *query, options,
                           &counter);
  const double seconds = watch.ElapsedSeconds();
  if (!stats.ok()) {
    std::cout << "error: " << stats.status().ToString() << "\n";
    return;
  }
  // Re-run to materialize the first rows for display (cheap relative to
  // the counting run; skipped when there is nothing to show).
  if (counter.count() > 0 && state.print_limit > 0) {
    class FirstRows : public Sink {
     public:
      FirstRows(uint64_t limit, std::vector<std::vector<NodeId>>* out)
          : limit_(limit), out_(out) {}
      bool Emit(const std::vector<NodeId>& binding) override {
        out_->push_back(binding);
        return out_->size() < limit_;
      }
      uint64_t count() const override { return out_->size(); }

     private:
      uint64_t limit_;
      std::vector<std::vector<NodeId>>* out_;
    };
    std::vector<std::vector<NodeId>> first;
    FirstRows sink(state.print_limit, &first);
    (void)engine->Run(*state.db, *state.catalog, *query, options, &sink);

    std::vector<std::string> header;
    for (VarId v = 0; v < query->NumVars(); ++v) {
      header.push_back("?" + query->VarName(v));
    }
    TablePrinter table(std::move(header));
    for (const auto& row : first) {
      std::vector<std::string> cells;
      for (NodeId n : row) cells.push_back(state.db->nodes().Term(n));
      table.AddRow(std::move(cells));
    }
    table.Print(std::cout);
    if (counter.count() > first.size()) {
      std::cout << "... and " << (counter.count() - first.size())
                << " more rows\n";
    }
  }
  std::cout << counter.count() << " embedding(s) in "
            << TablePrinter::FormatSeconds(seconds) << " s";
  if (stats->ag_pairs > 0) std::cout << "  |AG| = " << stats->ag_pairs;
  std::cout << "\n";
}

/// --connect mode: every query goes over the wire to a wf_server; the
/// shell is a thin net::Client REPL. Rows print as node ids — the term
/// dictionary lives on the server.
int RunRemoteShell(const Flags& flags) {
  net::ClientOptions options;
  options.service_class = flags.GetString("service_class", "");
  auto client =
      net::Client::Connect(flags.GetString("connect", ""), options);
  if (!client.ok()) {
    std::cerr << "connect: " << client.status().ToString() << "\n";
    return 1;
  }
  std::cout << "connected (service class '"
            << (*client)->hello().resolved_service_class
            << "', row batches of " << (*client)->hello().rows_per_batch
            << "); type a query, .limit N, or .quit\n";
  uint64_t print_limit = 10;
  std::string line;
  while (std::cout << "wf> " << std::flush, std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == ".quit" || line == ".exit") break;
    if (line.rfind(".limit", 0) == 0) {
      print_limit = std::strtoull(line.c_str() + 6, nullptr, 10);
      continue;
    }
    Stopwatch watch;
    auto result = (*client)->Run(line);
    const double seconds = watch.ElapsedSeconds();
    if (!result.ok()) {
      // Protocol-level failure: the connection is gone.
      std::cerr << "connection error: " << result.status().ToString()
                << "\n";
      return 1;
    }
    const runtime::QueryReport& report = result->report;
    if (!report.status.ok()) {
      std::cout << "error: " << report.status.ToString() << "\n";
      continue;
    }
    if (report.has_aggregate) {
      const AggregateResult& aggregate = report.aggregate;
      if (aggregate.kind == AggregateKind::kAsk) {
        std::cout << (aggregate.ask ? "yes" : "no");
      } else if (!aggregate.groups.empty()) {
        std::cout << aggregate.groups.size() << " group(s), total "
                  << aggregate.value.ToString();
      } else {
        std::cout << "count = " << aggregate.value.ToString();
      }
    } else {
      const net::RowTable& rows = result->rows;
      const uint64_t shown = std::min<uint64_t>(rows.size(), print_limit);
      for (uint64_t r = 0; r < shown; ++r) {
        const std::span<const NodeId> row = rows.Row(r);
        for (size_t i = 0; i < row.size(); ++i) {
          std::cout << (i == 0 ? "" : "\t") << row[i];
        }
        std::cout << "\n";
      }
      if (rows.size() > shown) {
        std::cout << "... and " << (result->rows.size() - shown)
                  << " more rows\n";
      }
      std::cout << report.rows << " embedding(s)";
    }
    std::cout << "  [" << runtime::QueryOutcomeName(report.outcome)
              << (report.cache_hit ? ", cache hit" : "") << "] in "
              << TablePrinter::FormatSeconds(seconds) << " s\n";
  }
  Status bye = (*client)->Goodbye();
  if (!bye.ok()) {
    std::cerr << "goodbye: " << bye.ToString() << "\n";
    return 1;
  }
  return 0;
}

void HandleCommand(ShellState& state, const std::string& line) {
  std::istringstream in(line);
  std::string cmd;
  in >> cmd;
  std::string arg;
  std::getline(in, arg);
  if (!arg.empty() && arg.front() == ' ') arg.erase(0, 1);

  if (cmd == ".help") {
    std::cout << "commands: .engine .explain .load .open .save .stats "
                 ".limit .timeout .quit;\nanything else runs as a query — "
                 "select ..., select (count(*) as ?c) ..., ask { ... }\n";
  } else if (cmd == ".engine") {
    if (MakeEngine(arg) == nullptr) {
      std::cout << "unknown engine '" << arg << "' (WF PG VT MD NJ)\n";
    } else {
      state.engine_name = arg;
      std::cout << "engine = " << arg << "\n";
    }
  } else if (cmd == ".explain") {
    auto query = SparqlParser::ParseAndBind(arg, *state.db);
    if (!query.ok()) {
      std::cout << "error: " << query.status().ToString() << "\n";
      return;
    }
    WireframeEngine engine;
    auto text = engine.Explain(*state.db, *state.catalog, *query);
    std::cout << (text.ok() ? *text : text.status().ToString()) << "\n";
  } else if (cmd == ".load") {
    DatabaseBuilder builder;
    auto count = NTriples::ReadFile(arg, &builder);
    if (!count.ok()) {
      std::cout << "error: " << count.status().ToString() << "\n";
      return;
    }
    state.Adopt(std::move(builder).Build());
    std::cout << "loaded " << *count << " triples\n";
  } else if (cmd == ".open") {
    auto db = Serializer::LoadFile(arg);
    if (!db.ok()) {
      std::cout << "error: " << db.status().ToString() << "\n";
      return;
    }
    state.Adopt(std::move(db).value());
    std::cout << "opened " << state.db->store().NumTriples()
              << " triples\n";
  } else if (cmd == ".save") {
    Status st = Serializer::SaveFile(*state.db, arg);
    std::cout << (st.ok() ? "saved " + arg : "error: " + st.ToString())
              << "\n";
  } else if (cmd == ".stats") {
    PrintStats(state);
  } else if (cmd == ".limit") {
    state.print_limit = std::strtoull(arg.c_str(), nullptr, 10);
  } else if (cmd == ".timeout") {
    state.timeout_seconds = std::atof(arg.c_str());
  } else {
    std::cout << "unknown command " << cmd << " (try .help)\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.Has("connect")) return RunRemoteShell(flags);
  ShellState state;

  if (flags.Has("nt")) {
    DatabaseBuilder builder;
    auto count = NTriples::ReadFile(flags.GetString("nt", ""), &builder);
    if (!count.ok()) {
      std::cerr << count.status().ToString() << "\n";
      return 1;
    }
    state.Adopt(std::move(builder).Build());
  } else if (flags.Has("db")) {
    auto db = Serializer::LoadFile(flags.GetString("db", ""));
    if (!db.ok()) {
      std::cerr << db.status().ToString() << "\n";
      return 1;
    }
    state.Adopt(std::move(db).value());
  } else {
    YagoLikeConfig config;
    config.scale = flags.GetDouble("scale", 0.1);
    config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    std::cout << "generating YAGO-like graph (scale " << config.scale
              << ") ...\n";
    state.Adopt(MakeYagoLike(config));
  }
  PrintStats(state);
  std::cout << "type a query or .help\n";

  std::string line;
  while (std::cout << "wf> " << std::flush, std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == ".quit" || line == ".exit") break;
    if (line[0] == '.') {
      HandleCommand(state, line);
    } else {
      RunQuery(state, line);
    }
  }
  return 0;
}
