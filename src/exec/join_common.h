#ifndef WIREFRAME_EXEC_JOIN_COMMON_H_
#define WIREFRAME_EXEC_JOIN_COMMON_H_

#include <cstdint>
#include <vector>

#include "catalog/estimator.h"
#include "exec/engine.h"
#include "query/query_graph.h"
#include "storage/database.h"
#include "util/result.h"

namespace wireframe {

/// Helpers shared by the baseline engines and the bushy executor. Each
/// baseline is a join *regime* (pipelined vs fully materializing)
/// combined with a join-order heuristic; these building blocks keep the
/// four engines honest: they differ only in the dimensions the paper's
/// comparison systems differ in.

/// A fully materialized join intermediate: flat row-major storage over a
/// schema of variables. Shared by every materializing join in the system
/// (the bushy executor's hash joins today); rows are appended as raw
/// cells so per-morsel chunks concatenate into the same relation for
/// every pool size.
struct JoinRelation {
  std::vector<VarId> schema;
  std::vector<NodeId> cells;  // rows.size() * schema.size()

  size_t Width() const { return schema.size(); }
  size_t NumRows() const {
    return schema.empty() ? 0 : cells.size() / schema.size();
  }
  const NodeId* Row(size_t r) const { return cells.data() + r * Width(); }

  /// Column index of variable v in the schema, or -1.
  int ColumnOf(VarId v) const {
    for (size_t i = 0; i < schema.size(); ++i) {
      if (schema[i] == v) return static_cast<int>(i);
    }
    return -1;
  }
};

/// Hashes the values of `cols` within one row (join-key hash).
uint64_t JoinKeyHash(const NodeId* row, const std::vector<int>& cols);

/// True iff the two rows agree on their respective join columns.
bool JoinKeysEqual(const NodeId* a, const std::vector<int>& acols,
                   const NodeId* b, const std::vector<int>& bcols);

/// Connected order choosing the smallest base relation first, then always
/// the connected edge with the smallest label cardinality (graph-
/// exploration flavor; the Neo4J-like baseline).
std::vector<uint32_t> OrderBySmallestLabel(const QueryGraph& query,
                                           const Catalog& catalog);

/// Connected order greedily minimizing the estimator's predicted matched
/// edges at each step (index-driven RDF-store flavor; the Virtuoso-like
/// and PostgreSQL-like baselines).
std::vector<uint32_t> OrderByEstimatedGrowth(const QueryGraph& query,
                                             const CardinalityEstimator& est);

/// The query's edges in written order, locally reordered only as needed to
/// keep the prefix connected (naive algebra flavor; the MonetDB-like
/// baseline).
std::vector<uint32_t> OrderAsWrittenConnected(const QueryGraph& query);

/// Pipelined (tuple-at-a-time, index nested loop) evaluation directly over
/// the triple store: depth-first extension of one binding at a time, no
/// intermediate materialization, always serial (`run.pool` is unused).
/// Neo4J/Virtuoso regime. `run`'s deadline and cancel flag are checked
/// once before the first step and then on an amortized cadence.
Result<EngineStats> RunPipelined(const Database& db, const QueryGraph& query,
                                 const std::vector<uint32_t>& order,
                                 Sink* sink, const EngineOptions& run = {});

/// Fully materializing (relation-at-a-time) evaluation: every join step
/// produces the complete intermediate binding table before the next step
/// starts. PostgreSQL/MonetDB regime. `max_cells` bounds intermediate
/// memory (rows x vars); exceeding it aborts with OutOfRange, which the
/// benches report like a timeout.
///
/// Each build step runs over morsels of the previous intermediate on
/// `run`'s pool; per-morsel row chunks concatenate in morsel order, so
/// every intermediate — and the final result — is the same for every
/// pool size.
Result<EngineStats> RunMaterializing(const Database& db,
                                     const QueryGraph& query,
                                     const std::vector<uint32_t>& order,
                                     uint64_t max_cells, Sink* sink,
                                     const EngineOptions& run = {});

}  // namespace wireframe

#endif  // WIREFRAME_EXEC_JOIN_COMMON_H_
