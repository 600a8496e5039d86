#ifndef WIREFRAME_BENCHLIB_JSON_WRITER_H_
#define WIREFRAME_BENCHLIB_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace wireframe {

/// One (engine, query) bench cell in machine-readable form. The repo
/// accumulates these as BENCH_*.json trajectory files so speedups and
/// regressions are diffable across PRs.
struct BenchRecord {
  std::string engine;  // paper tag: WF, PG, VT, MD, NJ
  std::string query;   // suite-local id, e.g. "T1-Q2" or "fig4"
  bool ok = false;
  bool timed_out = false;
  double seconds = 0.0;
  uint64_t edge_walks = 0;
  uint64_t output_tuples = 0;
  uint64_t ag_pairs = 0;
  uint32_t threads = 1;
  /// Wireframe phase split (0 for baselines and when not measured).
  /// burnback/freeze are slices of phase 1: cascading node burnback and
  /// the CSR freeze of the answer graph.
  double phase1_seconds = 0.0;
  double burnback_seconds = 0.0;
  double freeze_seconds = 0.0;
  double phase2_seconds = 0.0;
  /// Slice of phase 2 spent producing an aggregate answer (the counting
  /// DP or the enumerate-then-count fold; 0 for plain SELECT cells).
  double aggregate_seconds = 0.0;
  /// Per-query latency percentiles of a concurrent-serving cell
  /// (bench_priority's per-class latency rows; 0 when the cell is a
  /// single run).
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
};

/// Collects BenchRecords and serializes them as a JSON array. No external
/// JSON dependency: the schema is flat, so hand-rolled serialization with
/// string escaping is all that is needed.
///
/// Provenance metadata (hardware core count, dataset scale, ...) can be
/// attached with SetMeta; with any metadata present the output becomes
/// `{"meta": {...}, "records": [...]}` instead of the bare legacy array
/// (scripts/bench_diff.py reads both shapes).
class JsonResultWriter {
 public:
  void Add(BenchRecord record) { records_.push_back(std::move(record)); }

  /// Attaches one provenance key/value (insertion-ordered; setting an
  /// existing key overwrites it).
  void SetMeta(const std::string& key, const std::string& value);

  bool empty() const { return records_.empty(); }
  const std::vector<BenchRecord>& records() const { return records_; }

  /// The records as pretty-printed JSON (array, or object when metadata
  /// is attached).
  std::string ToJson() const;

  /// Writes ToJson() to `path`. Returns false (and prints to stderr) on
  /// I/O failure.
  bool WriteTo(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<BenchRecord> records_;
};

}  // namespace wireframe

#endif  // WIREFRAME_BENCHLIB_JSON_WRITER_H_
