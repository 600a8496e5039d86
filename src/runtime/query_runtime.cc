#include "runtime/query_runtime.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/wireframe.h"
#include "query/canonical.h"
#include "runtime/ag_cache.h"
#include "util/logging.h"
#include "util/timer.h"

namespace wireframe {
namespace runtime {

const char* QueryOutcomeName(QueryOutcome outcome) {
  switch (outcome) {
    case QueryOutcome::kPending:
      return "pending";
    case QueryOutcome::kCompleted:
      return "completed";
    case QueryOutcome::kBudgetExhausted:
      return "budget_exhausted";
    case QueryOutcome::kTimedOut:
      return "timed_out";
    case QueryOutcome::kCancelled:
      return "cancelled";
    case QueryOutcome::kFailed:
      return "failed";
  }
  return "unknown";
}

bool QuerySession::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

void QuerySession::Wait() const {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return done_; });
}

bool QuerySession::WaitFor(double seconds) const {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                    [&] { return done_; });
  return done_;
}

QueryOutcome QuerySession::outcome() const {
  std::lock_guard<std::mutex> lock(mu_);
  return outcome_;
}

Status QuerySession::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

EngineStats QuerySession::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

uint64_t QuerySession::rows_emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rows_emitted_;
}

double QuerySession::queue_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_seconds_;
}

double QuerySession::run_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return run_seconds_;
}

bool QuerySession::cache_hit() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_hit_;
}

bool QuerySession::has_aggregate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return has_aggregate_;
}

AggregateResult QuerySession::aggregate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return aggregate_;
}

QueryRuntime::QueryRuntime(RuntimeOptions options)
    : options_([&] {
        RuntimeOptions o = options;
        o.admission.max_inflight = std::max(1u, o.admission.max_inflight);
        for (TenantSpec& spec : o.admission.tenants) {
          spec.weight = std::max(1u, spec.weight);
        }
        return o;
      }()),
      pool_(ThreadPool::ResolveThreads(options_.pool_threads)) {
  // Tenant table: the implicit default class first, then the configured
  // specs. A spec named "default" (or "") re-configures slot 0 instead
  // of adding a class.
  Tenant default_tenant;
  default_tenant.spec.name = "default";
  tenants_.push_back(std::move(default_tenant));
  for (const TenantSpec& spec : options_.admission.tenants) {
    if (spec.name.empty() || spec.name == "default") {
      tenants_[0].spec = spec;
      tenants_[0].spec.name = "default";
    } else {
      Tenant tenant;
      tenant.spec = spec;
      tenants_.push_back(std::move(tenant));
    }
  }
  // Answer-graph cache: one partition per tenant; built only when some
  // tenant actually has a quota, so the default configuration keeps the
  // historic execution path untouched.
  std::vector<uint64_t> cache_quotas;
  cache_quotas.reserve(tenants_.size());
  bool any_cache = false;
  for (const Tenant& tenant : tenants_) {
    const uint64_t quota =
        tenant.spec.ag_cache_bytes >= 0
            ? static_cast<uint64_t>(tenant.spec.ag_cache_bytes)
            : options_.admission.ag_cache_bytes;
    cache_quotas.push_back(quota);
    any_cache = any_cache || quota > 0;
  }
  if (any_cache) ag_cache_ = std::make_unique<AgCache>(std::move(cache_quotas));
  active_.resize(options_.admission.max_inflight);
  drivers_.reserve(options_.admission.max_inflight);
  for (uint32_t i = 0; i < options_.admission.max_inflight; ++i) {
    drivers_.emplace_back([this, i] { DriverLoop(i); });
  }
}

QueryRuntime::~QueryRuntime() {
  std::deque<std::shared_ptr<QuerySession>> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    for (Tenant& tenant : tenants_) {
      for (std::shared_ptr<QuerySession>& s : tenant.queue) {
        orphaned.push_back(std::move(s));
      }
      tenant.queue.clear();
    }
    queued_total_ = 0;
    // Running queries are revoked cooperatively; their drivers finish the
    // session (with kCancelled) before observing shutdown.
    for (const std::shared_ptr<QuerySession>& s : active_) {
      if (s != nullptr) s->Cancel();
    }
  }
  queue_cv_.notify_all();
  vacancy_cv_.notify_all();
  {
    // Blocked submitters woke on shutdown_ and are returning Cancelled;
    // they still touch mu_/stats_ on the way out, so drain them before
    // member destruction.
    std::unique_lock<std::mutex> lock(mu_);
    vacancy_cv_.wait(lock, [&] { return waiting_submitters_ == 0; });
  }
  for (std::thread& t : drivers_) t.join();
  for (const std::shared_ptr<QuerySession>& s : orphaned) {
    Finish(*s, QueryOutcome::kCancelled,
           Status::Cancelled("query runtime shut down"));
    ++stats_.completed;  // drivers are joined: no further writers
    ++tenants_[s->tenant_].completed;
  }
}

Result<std::shared_ptr<QuerySession>> QueryRuntime::Submit(
    QueryRequest request, SubmitRejection* rejection) {
  if (request.db == nullptr || request.catalog == nullptr) {
    return Status::InvalidArgument("QueryRequest needs a db and a catalog");
  }
  if (MakeEngine(request.engine) == nullptr) {
    return Status::InvalidArgument("unknown engine '" + request.engine + "'");
  }

  auto session = std::make_shared<QuerySession>();
  session->engine_ = request.engine;
  session->tenant_ = ResolveTenant(request.service_class);
  session->service_class_ = tenants_[session->tenant_].spec.name;
  session->request_ = std::move(request);

  const AdmissionControl& adm = options_.admission;
  const uint64_t capacity =
      static_cast<uint64_t>(adm.max_inflight) + adm.max_queued;
  {
    std::unique_lock<std::mutex> lock(mu_);
    Tenant& tenant = tenants_[session->tenant_];
    ++stats_.submitted;
    ++tenant.submitted;
    ReapCancelledLocked();
    // Per-tenant quota first: a kReject tenant is shed the moment its
    // own slice of the runtime — running plus its queue — is at quota,
    // no matter how idle the rest of the runtime is. (kQueue tenants
    // pass through here and wait for one of their own slots at dispatch
    // time instead.)
    auto at_reject_quota = [&] {
      return tenant.spec.max_inflight > 0 &&
             tenant.spec.when_at_quota == QuotaPolicy::kReject &&
             tenant.running + tenant.queue.size() >=
                 tenant.spec.max_inflight;
    };
    auto shed_at_quota = [&]() -> Status {
      ++stats_.rejected;
      ++tenant.rejected;
      return Status::ResourceExhausted(
          "tenant '" + tenant.spec.name + "' at quota (" +
          std::to_string(tenant.running) + " running, " +
          std::to_string(tenant.queue.size()) + " queued, quota " +
          std::to_string(tenant.spec.max_inflight) + ")");
    };
    if (at_reject_quota()) return shed_at_quota();
    // Overload brownout: past the queue-depth watermark, shed the
    // lowest-weight tenants first — with a typed kOverloaded + backoff
    // hint — so the queue never fills with low-priority work that would
    // time the high-priority class out. The weight cutoff rises
    // linearly with queue depth between the watermark and max_queued;
    // the top-weight class is never brownout-shed, and uniform-weight
    // deployments fall through to the ordinary saturation policy.
    const uint32_t watermark = adm.brownout_queue_watermark;
    if (watermark > 0 && queued_total_ >= watermark) {
      uint32_t min_w = tenants_[0].spec.weight;
      uint32_t max_w = min_w;
      for (const Tenant& t : tenants_) {
        min_w = std::min(min_w, t.spec.weight);
        max_w = std::max(max_w, t.spec.weight);
      }
      const uint32_t my_w = tenant.spec.weight;
      if (max_w > min_w && my_w < max_w) {
        const double span = adm.max_queued > watermark
                                ? static_cast<double>(adm.max_queued) -
                                      watermark
                                : 1.0;
        double f =
            (static_cast<double>(queued_total_) + 1.0 - watermark) / span;
        if (f > 1.0) f = 1.0;
        const double cutoff = min_w + f * (max_w - min_w);
        if (static_cast<double>(my_w) <= cutoff) {
          ++stats_.rejected;
          ++tenant.rejected;
          ++tenant.brownout_rejected;
          if (rejection != nullptr) {
            rejection->retry_after_ms = adm.brownout_retry_after_ms;
          }
          return Status::Overloaded(
              "runtime overloaded (queue depth " +
              std::to_string(queued_total_) + " >= watermark " +
              std::to_string(watermark) + "): tenant '" +
              tenant.spec.name + "' (weight " + std::to_string(my_w) +
              ") browned out, retry after " +
              std::to_string(adm.brownout_retry_after_ms) + " ms");
        }
      }
    }
    // Admission counts queries in the system (queued + running) against
    // max_inflight + max_queued, so a full runtime sheds or blocks even
    // while an idle driver is mid-handoff.
    auto has_room = [&] { return running_ + queued_total_ < capacity; };
    if (!has_room()) {
      if (!adm.block_when_full) {
        ++stats_.rejected;
        ++tenant.rejected;
        return Status::ResourceExhausted(
            "query runtime saturated (" + std::to_string(running_) +
            " running, " + std::to_string(queued_total_) + " queued)");
      }
      // The waiter count keeps the destructor from tearing the runtime
      // down under a parked submitter: it wakes us (shutdown_) and waits
      // for this count to drain before members die.
      ++waiting_submitters_;
      vacancy_cv_.wait(lock, [&] { return shutdown_ || has_room(); });
      --waiting_submitters_;
      if (shutdown_) vacancy_cv_.notify_all();  // destructor may be waiting
    }
    if (shutdown_) {
      ++stats_.rejected;
      ++tenant.rejected;
      return Status::Cancelled("query runtime shutting down");
    }
    // Re-check after the block_when_full park: several submitters of the
    // same kReject tenant can pass the pre-wait quota check, park on a
    // full runtime, and wake together — only as many as the quota allows
    // may enqueue, or the tenant would hold more than it ever could
    // under the documented policy.
    if (at_reject_quota()) return shed_at_quota();
    session->id_ = next_id_++;
    session->submit_watch_.Restart();
    tenant.queue.push_back(session);
    ++queued_total_;
  }
  queue_cv_.notify_one();
  return session;
}

size_t QueryRuntime::ResolveTenant(const std::string& service_class) const {
  if (service_class.empty()) return 0;
  for (size_t i = 1; i < tenants_.size(); ++i) {
    if (tenants_[i].spec.name == service_class) return i;
  }
  // "default" itself, and any class no spec names, land on slot 0.
  return 0;
}

bool QueryRuntime::HasDispatchableLocked() const {
  for (const Tenant& tenant : tenants_) {
    if (tenant.queue.empty()) continue;
    if (tenant.spec.max_inflight == 0 ||
        tenant.running < tenant.spec.max_inflight) {
      return true;
    }
  }
  return false;
}

std::shared_ptr<QuerySession> QueryRuntime::PickLocked() {
  Tenant* picked = nullptr;
  for (Tenant& tenant : tenants_) {
    if (tenant.queue.empty()) continue;
    if (tenant.spec.max_inflight > 0 &&
        tenant.running >= tenant.spec.max_inflight) {
      continue;  // at quota: its queue waits for one of its own slots
    }
    if (picked == nullptr || tenant.pass < picked->pass) picked = &tenant;
  }
  if (picked == nullptr) return nullptr;
  // Stride accounting: re-enter at the current virtual time after an
  // idle stretch (no banked burst), then pay for this dispatch.
  picked->pass = std::max(picked->pass, dispatch_virtual_time_);
  dispatch_virtual_time_ = picked->pass;
  picked->pass += std::max<uint64_t>(1, kDispatchStride / picked->spec.weight);
  std::shared_ptr<QuerySession> session = std::move(picked->queue.front());
  picked->queue.pop_front();
  --queued_total_;
  return session;
}

RuntimeStats QueryRuntime::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  RuntimeStats stats = stats_;
  stats.tenants.reserve(tenants_.size());
  for (size_t i = 0; i < tenants_.size(); ++i) {
    const Tenant& tenant = tenants_[i];
    TenantStats ts;
    ts.tenant = tenant.spec.name;
    ts.weight = tenant.spec.weight;
    ts.submitted = tenant.submitted;
    ts.rejected = tenant.rejected;
    ts.brownout_rejected = tenant.brownout_rejected;
    ts.completed = tenant.completed;
    ts.running = tenant.running;
    ts.queued = static_cast<uint32_t>(tenant.queue.size());
    if (ag_cache_ != nullptr) {
      const AgCache::Counters cc = ag_cache_->counters(i);
      ts.cache_hits = cc.hits;
      ts.cache_misses = cc.misses;
      ts.cache_evictions = cc.evictions;
      ts.cache_inserts = cc.inserts;
      ts.cache_bytes = cc.bytes;
      ts.cache_entries = cc.entries;
    }
    stats.tenants.push_back(std::move(ts));
  }
  return stats;
}

uint32_t QueryRuntime::waiting_submitters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiting_submitters_;
}

bool QueryRuntime::overloaded() const {
  const uint32_t watermark = options_.admission.brownout_queue_watermark;
  if (watermark == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return queued_total_ >= watermark;
}

void QueryRuntime::ReapCancelledLocked() {
  bool reaped = false;
  for (Tenant& tenant : tenants_) {
    for (auto it = tenant.queue.begin(); it != tenant.queue.end();) {
      if ((*it)->cancel_.load(std::memory_order_relaxed)) {
        Finish(**it, QueryOutcome::kCancelled,
               Status::Cancelled("cancelled while queued"));
        ++stats_.completed;
        ++tenant.completed;
        it = tenant.queue.erase(it);
        --queued_total_;
        reaped = true;
      } else {
        ++it;
      }
    }
  }
  // Reaping frees admission capacity: submitters blocked on a full
  // runtime (block_when_full) must re-check, or they would sleep on
  // room that already exists.
  if (reaped) vacancy_cv_.notify_all();
}

void QueryRuntime::DriverLoop(uint32_t driver_index) {
  for (;;) {
    std::shared_ptr<QuerySession> session;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock,
                     [&] { return shutdown_ || HasDispatchableLocked(); });
      if (shutdown_) return;  // the destructor finishes what is queued
      session = PickLocked();
      if (session == nullptr) continue;  // lost the race to another driver
      ++running_;
      ++tenants_[session->tenant_].running;
      active_[driver_index] = session;
    }
    auto [outcome, status] = Execute(*session);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
      ++stats_.completed;
      Tenant& tenant = tenants_[session->tenant_];
      --tenant.running;
      ++tenant.completed;
      active_[driver_index] = nullptr;
    }
    // Finish (which wakes Wait()ers) comes after the accounting above, so
    // stats() observed right after Wait() already includes this query.
    Finish(*session, outcome, std::move(status));
    // A finished query frees global capacity (parked submitters) and,
    // when its tenant was at quota, unblocks that tenant's queue for the
    // other drivers.
    vacancy_cv_.notify_all();
    queue_cv_.notify_all();
  }
}

std::pair<QueryOutcome, Status> QueryRuntime::Execute(QuerySession& session) {
  const QueryRequest& req = session.request_;
  const AdmissionControl& adm = options_.admission;
  {
    std::lock_guard<std::mutex> lock(session.mu_);
    session.queue_seconds_ = session.submit_watch_.ElapsedSeconds();
  }
  if (session.cancel_.load(std::memory_order_relaxed)) {
    return {QueryOutcome::kCancelled,
            Status::Cancelled("cancelled while queued")};
  }

  const double timeout = req.timeout_seconds >= 0.0
                             ? req.timeout_seconds
                             : adm.default_timeout_seconds;
  const uint64_t row_budget =
      req.row_budget >= 0 ? static_cast<uint64_t>(req.row_budget)
                          : adm.default_row_budget;

  CountingSink fallback;
  Sink* sink = req.sink != nullptr ? req.sink : &fallback;
  RowBudgetSink budget_sink(sink, row_budget == 0 ? UINT64_MAX : row_budget);
  // An aggregate query emits no rows — its one answer arrives out of
  // band — so the row budget never wraps it (a budget of 1 must not
  // truncate a COUNT).
  const bool is_aggregate =
      req.query.aggregate().kind != AggregateKind::kNone;
  Sink* run_sink = (row_budget > 0 && !is_aggregate) ? &budget_sink : sink;

  EngineOptions options;
  if (timeout > 0.0) options.deadline = Deadline::AfterSeconds(timeout);
  options.pool = &pool_;
  options.cancel = &session.cancel_;
  // The service class rides into every morsel loop of the run: pool
  // workers split between concurrent queries by these weights.
  options.weight = tenants_[session.tenant_].spec.weight;

  Stopwatch run_watch;
  EngineRunArtifacts artifacts;
  Result<EngineStats> result =
      RunEngine(session, options, run_sink, &artifacts);
  const double run_seconds = run_watch.ElapsedSeconds();

  QueryOutcome outcome;
  Status status;
  if (result.ok()) {
    outcome = budget_sink.exhausted() ? QueryOutcome::kBudgetExhausted
                                      : QueryOutcome::kCompleted;
  } else if (result.status().IsCancelled()) {
    outcome = QueryOutcome::kCancelled;
    status = result.status();
  } else if (result.status().IsTimedOut()) {
    outcome = QueryOutcome::kTimedOut;
    status = result.status();
  } else {
    outcome = QueryOutcome::kFailed;
    status = result.status();
  }
  {
    std::lock_guard<std::mutex> lock(session.mu_);
    session.run_seconds_ = run_seconds;
    if (result.ok()) session.stats_ = result.value();
    session.cache_hit_ = artifacts.cache_hit;
    session.has_aggregate_ = artifacts.has_aggregate;
    session.aggregate_ = std::move(artifacts.aggregate);
    session.rows_emitted_ = run_sink->count();
  }
  return {outcome, std::move(status)};
}

Result<EngineStats> QueryRuntime::RunEngine(QuerySession& session,
                                            const EngineOptions& options,
                                            Sink* sink,
                                            EngineRunArtifacts* artifacts) {
  const QueryRequest& req = session.request_;
  const bool is_aggregate =
      req.query.aggregate().kind != AggregateKind::kNone;
  if (ag_cache_ != nullptr && req.engine == "WF" &&
      ag_cache_->enabled(session.tenant_)) {
    const size_t tenant = session.tenant_;
    // Entries are keyed by canonical shape but stored in the variable
    // space of the query that filled them (CachedAg), so one entry
    // serves every isomorphic renaming and a verbatim repeat pays no
    // per-row remap. Engines never consult projection/DISTINCT (sink
    // concerns), so serving a repeat from the filler's query shape
    // changes no result.
    CanonicalQuery canon = CanonicalizeQuery(req.query);
    WireframeEngine engine;
    if (std::shared_ptr<const CachedAg> hit =
            ag_cache_->Lookup(tenant, canon.key)) {
      artifacts->cache_hit = true;
      // Compose the two canonical renamings into submitted -> filler:
      // the filler var playing submitted var v's role is the one with
      // v's canonical rank.
      const uint32_t n = req.query.NumVars();
      std::vector<VarId> from_canonical(n);
      for (VarId v = 0; v < n; ++v) {
        from_canonical[hit->to_canonical[v]] = v;
      }
      std::vector<VarId> to_filler(n);
      bool identity = true;
      for (VarId v = 0; v < n; ++v) {
        to_filler[v] = from_canonical[canon.to_canonical[v]];
        identity = identity && to_filler[v] == v;
      }
      // Same naming and same edge order: run the submitted query over
      // the shared AG directly — the hit is pure phase-1 savings. (Edge
      // order matters because AG edge sets are indexed by edge.)
      bool verbatim = identity;
      for (uint32_t e = 0; verbatim && e < req.query.NumEdges(); ++e) {
        const QueryEdge& a = req.query.Edge(e);
        const QueryEdge& b = hit->query.Edge(e);
        verbatim = a.src == b.src && a.dst == b.dst && a.label == b.label;
      }
      if (verbatim) {
        WF_ASSIGN_OR_RETURN(
            WireframeRunDetail detail,
            engine.RunOverAg(req.query, *hit->ag, options, sink));
        artifacts->has_aggregate = detail.has_aggregate;
        artifacts->aggregate = std::move(detail.aggregate);
        return detail.stats;
      }
      if (is_aggregate) {
        // Renamed isomorphic aggregate: run the filler's query shape
        // with the submitted spec mapped into its variable space. The
        // answer (counts keyed by data nodes) is renaming-invariant, so
        // no per-row remap exists to pay — a cached SELECT's AG serves
        // a later COUNT of the same shape with zero phase 1.
        QueryGraph filler_query = hit->query;
        AggregateSpec spec = req.query.aggregate();
        if (spec.distinct_var != kInvalidVar) {
          spec.distinct_var = to_filler[spec.distinct_var];
        }
        if (spec.group_var != kInvalidVar) {
          spec.group_var = to_filler[spec.group_var];
        }
        filler_query.SetAggregate(std::move(spec));
        WF_ASSIGN_OR_RETURN(
            WireframeRunDetail detail,
            engine.RunOverAg(filler_query, *hit->ag, options, sink));
        artifacts->has_aggregate = detail.has_aggregate;
        artifacts->aggregate = std::move(detail.aggregate);
        return detail.stats;
      }
      // Renamed isomorphic repeat: execute the filler's query shape and
      // restore the submitted variable order per row.
      RemapSink remap(sink, to_filler);
      WF_ASSIGN_OR_RETURN(
          WireframeRunDetail detail,
          engine.RunOverAg(hit->query, *hit->ag, options, &remap));
      return detail.stats;
    }
    const bool filling = ag_cache_->BeginFill(tenant, canon.key);
    // Miss: run the submitted query untouched — same plan, sink path,
    // and per-row cost as the uncached runtime.
    Result<WireframeRunDetail> detail =
        engine.RunDetailed(*req.db, *req.catalog, req.query, options, sink);
    if (!detail.ok()) {
      if (filling) ag_cache_->EndFill(tenant, canon.key, nullptr, 0.0);
      return detail.status();
    }
    artifacts->has_aggregate = detail->has_aggregate;
    artifacts->aggregate = std::move(detail->aggregate);
    if (filling) {
      // The entry's reconstruction cost is what a future hit saves:
      // phase 1 including burnback and freeze, not phase 2 (hits still
      // pay phase 2). A budget- or sink-stopped run still yields a
      // complete AG — phase 1 always runs to the end — so it fills too.
      auto value = std::make_shared<CachedAg>();
      value->ag = std::shared_ptr<const AnswerGraph>(std::move(detail->ag));
      value->query = req.query;
      // The cached query is a shape, not a request: strip any aggregate
      // so a COUNT-filled entry serves later plain SELECTs (and vice
      // versa) without smuggling the filler's spec along.
      value->query.SetAggregate({});
      value->to_canonical = std::move(canon.to_canonical);
      ag_cache_->EndFill(tenant, canon.key, std::move(value),
                         detail->stats.phase1_seconds);
    }
    return detail->stats;
  }
  if (req.engine == "WF" && is_aggregate) {
    // Cache-off WF aggregate: the detailed API is required anyway —
    // Engine::Run returns only EngineStats and would drop the answer.
    WireframeEngine engine;
    WF_ASSIGN_OR_RETURN(
        WireframeRunDetail detail,
        engine.RunDetailed(*req.db, *req.catalog, req.query, options, sink));
    artifacts->has_aggregate = detail.has_aggregate;
    artifacts->aggregate = std::move(detail.aggregate);
    return detail.stats;
  }
  std::unique_ptr<Engine> engine = MakeEngine(req.engine);
  WF_CHECK(engine != nullptr) << "engine validated at Submit";
  if (is_aggregate) {
    // Baseline engines know nothing of aggregates: enumerate their rows
    // into the counting fold and report the folded answer. Their whole
    // run is the "aggregate phase".
    Stopwatch aggregate_watch;
    EnumeratingAggregateSink fold(req.query.aggregate());
    WF_ASSIGN_OR_RETURN(
        EngineStats stats,
        engine->Run(*req.db, *req.catalog, req.query, options, &fold));
    artifacts->has_aggregate = true;
    artifacts->aggregate = fold.TakeResult();
    artifacts->aggregate.fallback_reason =
        "engine '" + req.engine + "' enumerates";
    stats.aggregate_seconds = aggregate_watch.ElapsedSeconds();
    stats.output_tuples = artifacts->aggregate.NumRows();
    if (auto* aggregate_sink = dynamic_cast<AggregateSink*>(sink)) {
      aggregate_sink->OnAggregate(artifacts->aggregate);
    }
    return stats;
  }
  return engine->Run(*req.db, *req.catalog, req.query, options, sink);
}

void QueryRuntime::Finish(QuerySession& session, QueryOutcome outcome,
                          Status status) {
  {
    std::lock_guard<std::mutex> lock(session.mu_);
    session.outcome_ = outcome;
    session.status_ = std::move(status);
    session.done_ = true;
  }
  session.done_cv_.notify_all();
}

}  // namespace runtime
}  // namespace wireframe
