#include "benchlib/harness.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <ostream>

#include "util/logging.h"
#include "util/timer.h"

namespace wireframe {

std::vector<std::string> ParseEngineList(const std::string& value) {
  std::vector<std::string> engines;
  size_t begin = 0;
  while (begin <= value.size()) {
    size_t end = value.find(',', begin);
    if (end == std::string::npos) end = value.size();
    const std::string name = value.substr(begin, end - begin);
    if (name.empty() || MakeEngine(name) == nullptr) {
      std::cerr << "--engines: unknown engine '" << name << "' in '" << value
                << "'\n";
      std::exit(2);
    }
    engines.push_back(name);
    begin = end + 1;
  }
  return engines;
}

std::vector<uint32_t> ParseThreadList(const std::string& value) {
  std::vector<uint32_t> threads;
  size_t begin = 0;
  while (begin <= value.size()) {
    size_t end = value.find(',', begin);
    if (end == std::string::npos) end = value.size();
    const std::string item = value.substr(begin, end - begin);
    // Unsigned from_chars takes digits only: no sign, no blank, no
    // fraction, and out-of-range values fail instead of wrapping.
    uint32_t requested = 0;
    const char* last = item.data() + item.size();
    const auto [ptr, ec] = std::from_chars(item.data(), last, requested);
    if (ec != std::errc() || ptr != last) {
      std::cerr << "--threads_list: '" << item << "' in '" << value
                << "' is not a non-negative integer thread count\n";
      std::exit(2);
    }
    const uint32_t resolved = ThreadPool::ResolveThreads(requested);
    if (std::find(threads.begin(), threads.end(), resolved) ==
        threads.end()) {
      threads.push_back(resolved);
    }
    begin = end + 1;
  }
  return threads;
}

BenchRecord ToRecord(const std::string& engine, const std::string& query_id,
                     const BenchCell& cell) {
  BenchRecord record;
  record.engine = engine;
  record.query = query_id;
  record.ok = cell.ok;
  record.timed_out = cell.timed_out;
  record.seconds = cell.seconds;
  record.edge_walks = cell.stats.edge_walks;
  record.output_tuples = cell.stats.output_tuples;
  record.ag_pairs = cell.stats.ag_pairs;
  record.threads = cell.threads;
  record.phase1_seconds = cell.phase1_seconds;
  record.burnback_seconds = cell.burnback_seconds;
  record.freeze_seconds = cell.freeze_seconds;
  record.phase2_seconds = cell.phase2_seconds;
  return record;
}

BenchCell Table1Harness::RunCell(const QueryGraph& query,
                                 const std::string& engine_name) {
  BenchCell cell;
  std::unique_ptr<Engine> engine = MakeEngine(engine_name);
  WF_CHECK(engine != nullptr) << "unknown engine " << engine_name;
  // Record what the cell actually ran with: serial-only engines ignore
  // the pool, and the JSON trajectory must not claim otherwise.
  cell.threads = engine->SupportsThreads() ? pool_.num_threads() : 1;

  double total_seconds = 0.0;
  int timed_runs = 0;
  for (int rep = 0; rep < std::max(1, config_.repetitions); ++rep) {
    EngineOptions options;
    options.deadline = Deadline::AfterSeconds(config_.timeout_seconds);
    options.pool = &pool_;
    CountingSink sink;
    Stopwatch watch;
    Result<EngineStats> result =
        engine->Run(*db_, *catalog_, query, options, &sink);
    const double elapsed = watch.ElapsedSeconds();
    if (!result.ok()) {
      cell.ok = false;
      cell.timed_out = result.status().IsTimedOut() ||
                       result.status().code() == StatusCode::kOutOfRange;
      cell.error = result.status().ToString();
      return cell;  // no point repeating a timed-out/failed run
    }
    cell.stats = result.value();
    // Warm-cache averaging: skip the first (cold) run when we have more.
    // Phase wall times (EngineStats; zero for baselines) average the
    // same way so the JSON trajectory carries the per-phase split.
    if (rep > 0 || config_.repetitions == 1) {
      total_seconds += elapsed;
      cell.phase1_seconds += result->phase1_seconds;
      cell.burnback_seconds += result->burnback_seconds;
      cell.freeze_seconds += result->freeze_seconds;
      cell.phase2_seconds += result->phase2_seconds;
      ++timed_runs;
    }
  }
  cell.ok = true;
  const int divisor = std::max(1, timed_runs);
  cell.seconds = total_seconds / divisor;
  cell.phase1_seconds /= divisor;
  cell.burnback_seconds /= divisor;
  cell.freeze_seconds /= divisor;
  cell.phase2_seconds /= divisor;
  return cell;
}

void Table1Harness::RunSuite(const std::vector<BenchQuery>& queries,
                             std::ostream& os) {
  std::vector<std::string> header = {"#", "Query"};
  for (const std::string& e : config_.engines) header.push_back(e);
  header.push_back("|AG|");
  header.push_back("|Embeddings|");
  TablePrinter table(std::move(header));

  for (const BenchQuery& bq : queries) {
    std::vector<std::string> row = {bq.id, bq.label};
    uint64_t ag_pairs = 0;
    uint64_t embeddings = 0;
    bool have_wf = false;
    for (const std::string& engine_name : config_.engines) {
      BenchCell cell = RunCell(bq.query, engine_name);
      if (config_.json != nullptr) {
        config_.json->Add(ToRecord(engine_name, bq.id, cell));
      }
      if (!cell.ok) {
        row.push_back(TablePrinter::Timeout());
        if (config_.verbose) {
          os << "  [" << engine_name << " @ " << bq.id << "] "
             << cell.error << "\n";
        }
        continue;
      }
      row.push_back(TablePrinter::FormatSeconds(cell.seconds));
      if (engine_name == "WF") {
        ag_pairs = cell.stats.ag_pairs;
        embeddings = cell.stats.output_tuples;
        have_wf = true;
      } else if (!have_wf && cell.stats.output_tuples > embeddings) {
        embeddings = cell.stats.output_tuples;
      }
    }
    row.push_back(have_wf ? TablePrinter::FormatCount(ag_pairs) : "?");
    row.push_back(TablePrinter::FormatCount(embeddings));
    table.AddRow(std::move(row));
  }
  table.Print(os);
}

}  // namespace wireframe
