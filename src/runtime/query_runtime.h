#ifndef WIREFRAME_RUNTIME_QUERY_RUNTIME_H_
#define WIREFRAME_RUNTIME_QUERY_RUNTIME_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "exec/aggregate_executor.h"
#include "exec/engine.h"
#include "exec/sink.h"
#include "query/query_graph.h"
#include "storage/database.h"
#include "util/result.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace wireframe {
namespace runtime {

class AgCache;

/// What a tenant's Submit does once the tenant already has
/// `max_inflight` queries in the system.
enum class QuotaPolicy {
  /// Admit and queue; the query waits for one of the tenant's own slots
  /// (and a driver). The tenant never loses work, it just backs up.
  kQueue,
  /// Shed immediately with ResourceExhausted. The tenant never holds
  /// more than its quota in the runtime — queued included — so a
  /// misbehaving batch client cannot fill the shared queue either.
  kReject,
};

/// One named service class sharing the runtime. Queries pick their class
/// via QueryRequest::service_class; an empty or unknown class runs as the
/// implicit "default" tenant (weight 1, no quota) — configure a spec
/// named "default" to change that.
struct TenantSpec {
  std::string name;
  /// Scheduler share relative to the other tenants, applied at BOTH
  /// levels: dispatch of queued queries to free drivers (stride-weighted
  /// pick across tenant queues) and every morsel loop the query runs on
  /// the shared pool (ParallelForOptions::weight). A weight-16 `latency`
  /// tenant therefore preempts weight-1 `batch` work at morsel
  /// granularity without starving it. Clamped to >= 1.
  uint32_t weight = 1;
  /// Cap on this tenant's queries in flight (running, plus queued for
  /// kReject — see QuotaPolicy). 0 = no per-tenant cap; the runtime-wide
  /// max_inflight/max_queued always applies on top.
  uint32_t max_inflight = 0;
  /// What happens at the quota.
  QuotaPolicy when_at_quota = QuotaPolicy::kQueue;
  /// Byte quota of this tenant's partition of the answer-graph cache
  /// (runtime::AgCache): frozen AGs of completed WF queries are kept per
  /// canonical query shape and reused to skip phase 1 + burnback.
  /// Negative inherits AdmissionControl::ag_cache_bytes; 0 opts this
  /// tenant out of caching.
  int64_t ag_cache_bytes = -1;
};

/// Admission policy of a QueryRuntime: how many queries run at once, how
/// many may wait, and the per-query defaults a request inherits when it
/// does not override them.
struct AdmissionControl {
  /// Queries executing concurrently (each owns one driver thread whose
  /// morsel loops interleave on the shared pool). Must be >= 1.
  uint32_t max_inflight = 4;
  /// Admitted-but-waiting queries beyond the in-flight ones. 0 turns the
  /// runtime into pure reject-when-saturated.
  uint32_t max_queued = 64;
  /// Queue-or-reject policy when both the in-flight slots and the queue
  /// are full: false rejects the Submit with ResourceExhausted (load
  /// shedding), true blocks the submitting thread until a slot frees.
  bool block_when_full = false;
  /// Default per-query wall-clock budget in seconds, measured from the
  /// moment the query starts running (queue wait is excluded, as the
  /// paper's 300 s budget is an execution budget). 0 = unlimited.
  double default_timeout_seconds = 0.0;
  /// Default per-query row budget: once this many rows reached the sink,
  /// the run stops and reports kBudgetExhausted. 0 = unlimited.
  uint64_t default_row_budget = 0;
  /// Default per-tenant byte quota of the answer-graph cache (see
  /// TenantSpec::ag_cache_bytes). 0 — the default — disables the cache
  /// entirely and preserves the historic execution path bit for bit.
  uint64_t ag_cache_bytes = 0;
  /// Overload brownout: once the global queue depth reaches this
  /// watermark, Submits from low-weight tenants are shed with a typed
  /// kOverloaded (plus a retry-after hint) BEFORE the queue fills, so
  /// high-weight traffic keeps bounded latency instead of everyone
  /// timing out together. The weight cutoff rises linearly from the
  /// smallest tenant weight at the watermark to the largest as the
  /// queue approaches max_queued; the top-weight class is never
  /// brownout-shed (it still hits the ordinary saturation rejection at
  /// a full queue), and a deployment where every tenant has the same
  /// weight never browns out. 0 disables brownout.
  uint32_t brownout_queue_watermark = 0;
  /// Backoff hint carried in kOverloaded rejections (REPORT
  /// retry_after_ms on the wire). Clients honoring it spread their
  /// retries past the pressure spike.
  uint32_t brownout_retry_after_ms = 250;
  /// Named service classes (weights + quotas). Empty keeps the historic
  /// single-class behavior: every query runs as the implicit "default"
  /// tenant and dispatch is plain FIFO.
  std::vector<TenantSpec> tenants;
};

/// Configuration of one QueryRuntime.
struct RuntimeOptions {
  /// Worker threads of the single shared pool (0 = one per hardware
  /// core). Every in-flight query's parallel phases multiplex onto this
  /// pool at morsel granularity.
  uint32_t pool_threads = 0;
  AdmissionControl admission;
};

/// One query of a Submit call. `db`/`catalog` are borrowed and must
/// outlive the session (the runtime serves immutable, already-loaded
/// data; PR 2 made stores and catalog reader-safe).
struct QueryRequest {
  const Database* db = nullptr;
  const Catalog* catalog = nullptr;
  QueryGraph query;
  /// Engine tag as understood by MakeEngine ("WF", "PG", ...).
  std::string engine = "WF";
  /// Optional result consumer (borrowed). Null counts rows only. Emit
  /// calls are mutually excluded (engines drain per-worker shards under
  /// one mutex) but may arrive from different pool threads, so the sink
  /// needs no locking of its own yet must not assume thread identity
  /// (no thread_local state or event-loop affinity).
  Sink* sink = nullptr;
  /// Per-query overrides of the admission defaults; negative values mean
  /// "use the default" (0 is a real value: unlimited).
  double timeout_seconds = -1.0;
  int64_t row_budget = -1;
  /// Service class this query runs as (AdmissionControl::tenants). Empty
  /// or unknown names resolve to the implicit "default" tenant.
  std::string service_class;
};

/// How a finished query ended.
enum class QueryOutcome {
  kPending,          // not finished yet
  kCompleted,        // ran to completion (or its sink declined more rows)
  /// A row beyond the budget was produced and refused; the sink received
  /// exactly `row_budget` rows and more existed. A result with exactly
  /// `row_budget` rows reports kCompleted.
  kBudgetExhausted,
  kTimedOut,   // per-query deadline expired mid-run
  kCancelled,  // Cancel() observed mid-run or while queued
  kFailed,     // any other non-OK engine status (see status())
};

const char* QueryOutcomeName(QueryOutcome outcome);

/// Handle to one admitted query. Created by QueryRuntime::Submit; shared
/// between the caller and the runtime's driver threads. All methods are
/// thread-safe.
class QuerySession {
 public:
  uint64_t id() const { return id_; }
  const std::string& engine() const { return engine_; }
  /// Resolved service class this query runs as ("default" when the
  /// request named none, or named one the runtime does not know).
  const std::string& service_class() const { return service_class_; }

  /// Requests cooperative cancellation. A running query stops at its
  /// next amortized interrupt probe; a queued one never runs — it is
  /// finished with kCancelled (and its admission slot reclaimed) the
  /// next time anything touches the queue: a driver freeing up or a
  /// later Submit. Idempotent.
  void Cancel() { cancel_.store(true, std::memory_order_relaxed); }

  bool done() const;
  /// Blocks until the query finished (any outcome).
  void Wait() const;
  /// Blocks until the query finished or `seconds` elapsed; returns
  /// done(). Completion wakes the waiter immediately (condition
  /// variable, not polling) — the socket front-end interleaves this
  /// with short connection polls while a query is in flight.
  bool WaitFor(double seconds) const;

  // Snapshots, safe to call at any time; settle once done(). Returned by
  // value: a reference into the session would outlive the lock and race
  // the driver's final write.
  QueryOutcome outcome() const;
  Status status() const;
  EngineStats stats() const;
  /// True iff the run was served from the answer-graph cache (phase 1
  /// and burnback skipped; stats().phase1_seconds is 0).
  bool cache_hit() const;
  /// True iff the query carried an aggregate (COUNT/ASK/GROUP BY); its
  /// scalar or grouped answer is then in aggregate(). Settles once
  /// done().
  bool has_aggregate() const;
  AggregateResult aggregate() const;
  /// Rows that reached the request sink (after any budget clamp).
  uint64_t rows_emitted() const;
  /// Seconds spent waiting for a driver slot / executing.
  double queue_seconds() const;
  double run_seconds() const;

 private:
  friend class QueryRuntime;

  mutable std::mutex mu_;
  mutable std::condition_variable done_cv_;
  uint64_t id_ = 0;
  std::string engine_;
  std::string service_class_;
  /// Index into the runtime's tenant table; resolved at Submit, constant
  /// afterwards (read lock-free by the drivers and the destructor).
  size_t tenant_ = 0;
  QueryRequest request_;  // moved in at Submit
  Stopwatch submit_watch_;  // restarted at admission
  std::atomic<bool> cancel_{false};
  // Guarded by mu_:
  bool done_ = false;
  QueryOutcome outcome_ = QueryOutcome::kPending;
  Status status_;
  EngineStats stats_;
  bool cache_hit_ = false;
  bool has_aggregate_ = false;
  AggregateResult aggregate_;
  uint64_t rows_emitted_ = 0;
  double queue_seconds_ = 0.0;
  double run_seconds_ = 0.0;
};

/// Machine-usable detail of an admission rejection, filled by Submit
/// alongside the non-OK status (messages are for humans; front-ends
/// need the hint as a number to put in the REPORT frame).
struct SubmitRejection {
  /// Suggested client backoff before retrying, in milliseconds. 0 when
  /// the rejection carried no hint (quota sheds, saturation).
  uint32_t retry_after_ms = 0;
};

/// Side results of one engine run that EngineStats does not carry: the
/// cache-hit verdict and, for aggregate queries, the scalar or grouped
/// answer itself (engines deliver it out of band — no row ever reaches
/// the request sink for an aggregate).
struct EngineRunArtifacts {
  bool cache_hit = false;
  bool has_aggregate = false;
  AggregateResult aggregate;
};

/// Per-tenant slice of RuntimeStats.
struct TenantStats {
  std::string tenant;
  /// Scheduler share (TenantSpec::weight; 1 for the implicit default).
  uint32_t weight = 1;
  uint64_t submitted = 0;
  /// Sheds: runtime-wide saturation plus this tenant's quota (kReject)
  /// plus brownout.
  uint64_t rejected = 0;
  /// Of `rejected`, the sheds the overload brownout took (typed
  /// kOverloaded with a retry-after hint).
  uint64_t brownout_rejected = 0;
  uint64_t completed = 0;
  /// Point-in-time gauges at the stats() call.
  uint32_t running = 0;
  uint32_t queued = 0;
  // Answer-graph cache slice of this tenant (all zero when the cache is
  // off). bytes/entries are gauges; the rest are monotonic counters.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_inserts = 0;
  uint64_t cache_bytes = 0;
  uint64_t cache_entries = 0;
};

/// One network connection's counters. The runtime itself never fills
/// these — net::SocketServer merges one entry per live connection into
/// its stats() snapshot, so serving dashboards read a single struct for
/// both the admission picture and the wire picture.
struct ConnectionStats {
  uint64_t id = 0;
  std::string peer;
  /// Service class of the connection's HELLO (every query of the
  /// connection runs as this tenant).
  std::string service_class;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t queries = 0;
  /// Back-pressure suspension episodes: one per time the result stream
  /// filled the send buffer and parked the emitting sink.
  uint64_t send_stalls = 0;
  /// Streams cut short by disconnect or write failure (no REPORT made it
  /// to the client).
  uint64_t aborted_streams = 0;
  /// CANCEL frames that reached an in-flight query: counted after the
  /// query and its result stream were both told to stop.
  uint64_t cancels = 0;
  /// Send-buffer occupancy: right now, and the lifetime maximum. The
  /// high-water mark never exceeds the configured send-buffer bound as
  /// long as one encoded frame fits in it (the back-pressure test pins
  /// this).
  uint64_t buffer_bytes = 0;
  uint64_t buffer_high_water = 0;
};

/// Aggregate counters of a runtime's lifetime, for load-shedding
/// dashboards and tests.
struct RuntimeStats {
  uint64_t submitted = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;  // any terminal outcome, including cancelled
  /// One entry per tenant, implicit "default" first, then the configured
  /// specs in AdmissionControl::tenants order.
  std::vector<TenantStats> tenants;
  // Network front-end slice (all zero/empty unless the snapshot came
  // from net::SocketServer::stats()).
  uint64_t connections_accepted = 0;
  uint32_t connections_active = 0;
  uint64_t net_malformed_frames = 0;
  uint64_t net_aborted_streams = 0;
  /// One entry per live connection at the stats() call.
  std::vector<ConnectionStats> connections;
};

/// The shared query runtime (ROADMAP: "Concurrent multi-query serving" +
/// "Runtime priorities"): one process-wide ThreadPool, per-tenant
/// admission queues in front of a fixed set of driver threads, and
/// per-query sessions carrying stats and cancellation.
///
/// Each admitted query executes on one driver thread; every
/// morsel-parallel loop the engine runs is submitted to the shared pool
/// as a task-group weighted by the query's service class, so N in-flight
/// queries interleave at morsel granularity — proportionally to their
/// tenants' weights — instead of fighting over private pools (or
/// serializing). Free drivers pick queued queries by the same weights
/// (stride scheduling across tenants, FIFO within one), and per-tenant
/// quotas cap how many drivers one class may hold. Engines are stateless
/// per Run and the stores/catalog are immutable, so cross-query state is
/// confined to this class and the pool.
class QueryRuntime {
 public:
  explicit QueryRuntime(RuntimeOptions options = {});
  /// Cancels everything still queued or running, then joins the drivers.
  ~QueryRuntime();

  QueryRuntime(const QueryRuntime&) = delete;
  QueryRuntime& operator=(const QueryRuntime&) = delete;

  /// Admits `request` (FIFO) or rejects it: ResourceExhausted when the
  /// runtime is saturated (policy reject), kOverloaded when the
  /// brownout watermark shed it. The session is live from the moment
  /// this returns. `rejection`, when non-null, receives machine-usable
  /// rejection detail (today: the retry-after hint) that a Status
  /// message cannot carry.
  Result<std::shared_ptr<QuerySession>> Submit(
      QueryRequest request, SubmitRejection* rejection = nullptr);

  /// True while the global queue depth is at or past the brownout
  /// watermark (always false when brownout is disabled). The STATUS
  /// frame exposes this so clients can back off before being shed.
  bool overloaded() const;

  /// The shared worker pool (exposed so callers can co-schedule their own
  /// morsel loops with the runtime's queries).
  ThreadPool& pool() { return pool_; }
  const RuntimeOptions& options() const { return options_; }
  /// Name of the tenant a service class resolves to ("default" for empty
  /// or unknown names) — what QuerySession::service_class() would report
  /// had the query been admitted. Front-ends use this so even
  /// rejected-at-admission reports carry the resolved class.
  const std::string& ResolveServiceClassName(
      const std::string& service_class) const {
    return tenants_[ResolveTenant(service_class)].spec.name;
  }
  RuntimeStats stats() const;
  /// Submitters currently parked in Submit (block_when_full). Exposed for
  /// saturation dashboards and the shutdown tests.
  uint32_t waiting_submitters() const;

 private:
  /// One service class and its scheduling state. Everything mutable is
  /// guarded by the pool mutex mu_.
  struct Tenant {
    TenantSpec spec;
    std::deque<std::shared_ptr<QuerySession>> queue;
    uint32_t running = 0;
    /// Stride virtual time of the dispatch scheduler: advanced by
    /// kDispatchStride / weight per dispatched query; the dispatchable
    /// tenant with the smallest pass goes next.
    uint64_t pass = 0;
    uint64_t submitted = 0;
    uint64_t rejected = 0;
    uint64_t brownout_rejected = 0;
    uint64_t completed = 0;
  };

  /// Pass increment of a weight-1 tenant per dispatched query (same
  /// scale as the pool's morsel-level strides).
  static constexpr uint64_t kDispatchStride = 1 << 20;

  void DriverLoop(uint32_t driver_index);
  /// Runs one admitted session on the calling driver and returns its
  /// terminal outcome. Does NOT mark the session done — the driver
  /// updates the runtime counters first and then calls Finish, so a
  /// stats() call racing a Wait()er never misses a completion.
  std::pair<QueryOutcome, Status> Execute(QuerySession& session);
  /// Dispatches one run to its engine. WF queries of a cache-enabled
  /// tenant run in canonical form against the AG cache (hit: phase 2
  /// only over the shared frozen AG; miss: full run, then single-flight
  /// insert); WF aggregates run through the detailed engine API so the
  /// aggregate answer survives; baseline engines serve aggregates by
  /// enumerate-then-count; everything else takes the historic MakeEngine
  /// path. `*artifacts` reports what happened.
  Result<EngineStats> RunEngine(QuerySession& session,
                                const EngineOptions& options, Sink* sink,
                                EngineRunArtifacts* artifacts);
  /// Finishes and drops queued sessions whose cancel flag is set, so a
  /// cancelled-but-never-run query stops holding an admission slot.
  /// Caller holds mu_.
  void ReapCancelledLocked();
  /// Maps a request's service class to its tenant index ("default" = 0
  /// for empty or unknown names).
  size_t ResolveTenant(const std::string& service_class) const;
  /// True when some tenant has a queued query it is allowed to run now
  /// (nonempty queue, below quota). Caller holds mu_.
  bool HasDispatchableLocked() const;
  /// Pops the next query by stride-weighted pick across the dispatchable
  /// tenants (FIFO within a tenant). Null when nothing is dispatchable.
  /// Caller holds mu_.
  std::shared_ptr<QuerySession> PickLocked();
  static void Finish(QuerySession& session, QueryOutcome outcome,
                     Status status);

  const RuntimeOptions options_;
  ThreadPool pool_;
  /// Answer-graph cache shared by the drivers; null unless at least one
  /// tenant has a nonzero cache quota (the cache-off path then costs
  /// nothing). Internally synchronized — never guarded by mu_, so slow
  /// fills and lookups cannot stall admission.
  std::unique_ptr<AgCache> ag_cache_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;   // drivers: dispatchable work
  std::condition_variable vacancy_cv_; // blocking submitters: room freed
  /// tenants_[0] is the implicit "default" class; configured specs
  /// follow (a spec named "default" or "" overrides slot 0 instead).
  std::vector<Tenant> tenants_;
  /// Queries queued across all tenants (the global admission gauge).
  size_t queued_total_ = 0;
  /// Virtual time of the dispatch scheduler: pass of the most recently
  /// dispatched tenant. A tenant whose queue was empty re-enters at this
  /// time, so idling never banks a burst.
  uint64_t dispatch_virtual_time_ = 0;
  /// active_[i] is driver i's currently executing session (null when
  /// idle); the destructor uses it to revoke in-flight queries.
  std::vector<std::shared_ptr<QuerySession>> active_;
  uint32_t running_ = 0;
  /// Submitters parked in Submit under block_when_full; the destructor
  /// drains this to zero before members die.
  uint32_t waiting_submitters_ = 0;
  uint64_t next_id_ = 1;
  bool shutdown_ = false;
  RuntimeStats stats_;

  std::vector<std::thread> drivers_;
};

}  // namespace runtime
}  // namespace wireframe

#endif  // WIREFRAME_RUNTIME_QUERY_RUNTIME_H_
