#ifndef WIREFRAME_UTIL_THREAD_POOL_H_
#define WIREFRAME_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.h"
#include "util/timer.h"

namespace wireframe {

/// Tuning knobs of one ParallelFor call.
struct ParallelForOptions {
  /// Indices are handed out in contiguous chunks of this size; every chunk
  /// starts at a multiple of it, so chunk boundaries — and therefore any
  /// per-morsel shard layout — depend only on `n` and the morsel size,
  /// never on the number of threads or scheduling order.
  uint64_t morsel_size = 1024;
  /// Checked between morsels (amortized over the morsel's items); an
  /// expired deadline stops dispatch and ParallelFor returns TimedOut.
  Deadline deadline;
  /// Optional cooperative early-stop: when some worker sets it, no further
  /// morsels are dispatched and ParallelFor returns OK (mirrors a sink
  /// declining more rows — a result, not an error). May be null.
  std::atomic<bool>* stop = nullptr;
  /// Optional cooperative cancellation (a query runtime revoking the
  /// task-group): when set, no further morsels are dispatched and
  /// ParallelFor returns Status::Cancelled. Checked between morsels, like
  /// the deadline. May be null.
  std::atomic<bool>* cancel = nullptr;
  /// Scheduler share of this task-group relative to the other groups in
  /// flight on the pool (stride-weighted round-robin: a weight-4 group is
  /// handed 4x the morsels of a concurrent weight-1 group, service-time
  /// permitting). 0 is clamped to 1. Weights only shape how the spawned
  /// workers divide themselves between groups; every group additionally
  /// keeps its calling thread, so even a weight-1 group next to a huge
  /// weight never starves (and the stride math guarantees workers still
  /// visit it, just proportionally rarely).
  uint32_t weight = 1;
};

/// A fixed pool of worker threads driving morsel-granular parallel loops
/// for any number of concurrent callers.
///
/// The only primitive is ParallelFor, which carves [0, n) into morsels
/// claimed off a per-call atomic counter. Each ParallelFor registers one
/// task-group with the pool's scheduler; workers pick runnable groups by
/// stride-weighted round-robin (each group advances a virtual-time pass
/// by kStrideScale/weight per pick; the dispatchable group with the
/// smallest pass goes next) and run ONE morsel before re-picking, so
/// loops submitted by different threads (different queries of a shared
/// runtime) interleave at morsel granularity instead of serializing
/// behind each other — and a high-weight group (a latency service class)
/// soaks up proportionally more worker picks than a batch group without
/// ever starving it. The calling thread participates as worker 0 of its
/// own group only, so ThreadPool(n) spawns n-1 threads and ThreadPool(1)
/// spawns none: its ParallelFor runs every morsel inline on the caller,
/// in index order, without registering a task-group (concurrent callers
/// share no scheduler state). That is what makes one code path serve
/// every thread count (see InlinePool). The pool is not re-entrant from
/// inside a body, but ParallelFor may be called concurrently from any
/// number of external threads.
///
/// Worker-id contract: `worker` is in [0, num_threads()) and is unique
/// among the threads concurrently executing one task-group (spawned
/// worker i always reports id i; the group's caller reports 0), so bodies
/// may index per-worker state with it exactly as before.
///
/// Error model: the first exception thrown by a body is captured, the
/// group's dispatch is aborted, and the exception is rethrown on the
/// calling thread once the group has quiesced. Deadline expiry surfaces
/// as Status::TimedOut and cancellation as Status::Cancelled the same
/// way. Either way no body of the group is left running when ParallelFor
/// returns, so per-morsel shards are safe to merge immediately. Other
/// groups are unaffected.
class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers (the caller is the extra worker).
  /// `num_threads` must be >= 1; use ResolveThreads to map a user-facing
  /// thread count (where 0 means "all cores") to a concrete value.
  explicit ThreadPool(uint32_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Maps a user-facing thread request (a --threads flag) to a concrete
  /// count: 0 means hardware concurrency (at least 1), anything else is
  /// taken as-is.
  static uint32_t ResolveThreads(uint32_t requested);

  uint32_t num_threads() const { return num_threads_; }

  /// Invokes body(worker, begin, end) for consecutive morsels covering
  /// [0, n), in parallel across the pool. Blocks until every dispatched
  /// morsel finished. Returns TimedOut if the deadline expired (Cancelled
  /// if the cancel flag fired) before all morsels ran; rethrows the first
  /// body exception. Safe to call from multiple threads concurrently;
  /// each call is an independent, fairly-scheduled task-group.
  Status ParallelFor(
      uint64_t n, const ParallelForOptions& options,
      const std::function<void(uint32_t worker, uint64_t begin, uint64_t end)>&
          body);

 private:
  /// State of one ParallelFor task-group, shared by its caller and the
  /// workers. Lives on the caller's stack; the caller removes it from the
  /// scheduler and waits for quiescence before it dies.
  struct Job {
    const std::function<void(uint32_t, uint64_t, uint64_t)>* body = nullptr;
    uint64_t n = 0;
    uint64_t morsel = 1;
    Deadline deadline;
    std::atomic<bool>* external_stop = nullptr;
    std::atomic<bool>* external_cancel = nullptr;
    /// Stride scheduling state, guarded by the pool mutex. `stride` is
    /// kStrideScale / weight (>= 1, so `pass` always advances and no
    /// group can pin the minimum forever); `pass` starts at the pool's
    /// virtual time when the group registers, so a newcomer neither jumps
    /// the queue nor inherits a debt it never accrued.
    uint64_t stride = 0;
    uint64_t pass = 0;
    std::atomic<uint64_t> next{0};
    /// Dispatch fence: once set no new morsel of this group is claimed.
    std::atomic<bool> abort{false};
    std::atomic<bool> timed_out{false};
    std::atomic<bool> cancelled{false};
    /// Spawned workers currently inside (or committed to entering) this
    /// group. Modified under the pool mutex; the caller's own morsel loop
    /// is not counted (the caller knows when it is done).
    uint32_t in_flight = 0;
    std::exception_ptr exception;  // guarded by the pool mutex
  };

  void WorkerLoop(uint32_t worker_id);
  /// Claims and runs morsels of `job` on the calling thread until the
  /// range, the deadline, a stop/cancel flag, or an exception ends the
  /// group's dispatch (old single-group behavior; used by the caller).
  void RunMorsels(Job& job, uint32_t worker_id);
  /// Runs one morsel of `job`, honoring the group's stop conditions.
  /// Returns false once the group has nothing left to dispatch.
  bool RunOneMorsel(Job& job, uint32_t worker_id);
  /// True when a spawned worker could claim a morsel of `job` right now.
  static bool Dispatchable(const Job& job);
  /// True when no morsel of `job` will run again (dispatch fenced or
  /// exhausted, and no spawned worker inside).
  static bool Quiesced(const Job& job);

  const uint32_t num_threads_;
  std::vector<std::thread> workers_;

  /// Pass increment of a weight-1 group per worker pick; a weight-w group
  /// advances by kStrideScale / w, so relative pick rates match relative
  /// weights to ~1/kStrideScale precision.
  static constexpr uint64_t kStrideScale = 1 << 20;

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for runnable groups
  std::condition_variable done_cv_;   // callers wait for group quiescence
  std::vector<Job*> jobs_;            // registered, not-yet-removed groups
  size_t rr_cursor_ = 0;              // tie-break rotation for equal passes
  /// Pass of the most recently picked group: the scheduler's virtual
  /// time. New groups start here (see Job::pass).
  uint64_t virtual_time_ = 0;
  /// jobs_.size() mirrored relaxed-atomically: lets a worker stay on its
  /// current group without retaking mu_ while no other group exists (the
  /// dominant single-query case keeps the old lock-free dispatch; a
  /// stale read costs at most one extra morsel before rotation).
  std::atomic<size_t> num_jobs_{0};
  bool shutdown_ = false;
};

/// The process-wide ThreadPool(1): no worker threads, every ParallelFor
/// runs inline on its caller. Components that take an optional pool run
/// their morsel loops here when handed null, so a single-threaded run
/// takes the same code path as a parallel one.
ThreadPool* InlinePool();

}  // namespace wireframe

#endif  // WIREFRAME_UTIL_THREAD_POOL_H_
