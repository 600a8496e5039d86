#include "util/thread_pool.h"

#include <algorithm>

#include "util/logging.h"

namespace wireframe {

ThreadPool::ThreadPool(uint32_t num_threads)
    : num_threads_(std::max<uint32_t>(1, num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (uint32_t i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

ThreadPool* InlinePool() {
  static ThreadPool pool(1);
  return &pool;
}

uint32_t ThreadPool::ResolveThreads(uint32_t requested) {
  if (requested != 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

bool ThreadPool::Dispatchable(const Job& job) {
  return !job.abort.load(std::memory_order_relaxed) &&
         job.next.load(std::memory_order_relaxed) < job.n;
}

bool ThreadPool::Quiesced(const Job& job) {
  return job.in_flight == 0 &&
         (job.abort.load(std::memory_order_relaxed) ||
          job.next.load(std::memory_order_relaxed) >= job.n);
}

Status ThreadPool::ParallelFor(
    uint64_t n, const ParallelForOptions& options,
    const std::function<void(uint32_t, uint64_t, uint64_t)>& body) {
  WF_CHECK(options.morsel_size > 0) << "morsel size must be positive";
  if (n == 0) return Status::OK();

  Job job;
  job.body = &body;
  job.n = n;
  job.morsel = options.morsel_size;
  job.deadline = options.deadline;
  job.external_stop = options.stop;
  job.external_cancel = options.cancel;
  job.stride = std::max<uint64_t>(
      1, kStrideScale / std::max<uint32_t>(1, options.weight));

  // One morsel, or no workers: run inline — the exception/timeout contract
  // is identical, just without the scheduler hand-off.
  const bool shared = !workers_.empty() && n > options.morsel_size;
  if (shared) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job.pass = virtual_time_;
      jobs_.push_back(&job);
      num_jobs_.store(jobs_.size(), std::memory_order_relaxed);
    }
    work_cv_.notify_all();
  }

  RunMorsels(job, /*worker_id=*/0);

  if (shared) {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return Quiesced(job); });
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
    num_jobs_.store(jobs_.size(), std::memory_order_relaxed);
    if (rr_cursor_ >= jobs_.size()) rr_cursor_ = 0;
  }

  if (job.exception != nullptr) std::rethrow_exception(job.exception);
  if (job.cancelled.load(std::memory_order_relaxed)) {
    return Status::Cancelled("parallel for");
  }
  if (job.timed_out.load(std::memory_order_relaxed)) {
    return Status::TimedOut("parallel for");
  }
  return Status::OK();
}

void ThreadPool::WorkerLoop(uint32_t worker_id) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] {
      if (shutdown_) return true;
      for (const Job* j : jobs_) {
        if (Dispatchable(*j)) return true;
      }
      return false;
    });
    if (shutdown_) return;

    // Weighted pick: the dispatchable group with the smallest stride pass
    // goes next (strictly-smaller comparison while scanning from the
    // round-robin cursor, so equal-pass groups — the all-weights-equal
    // case — still rotate exactly as the old fair scheduler did). The
    // picked group's pass advances by its stride, so over time worker
    // picks divide between groups in proportion to their weights, and
    // every group keeps getting picked: no weight can park another
    // group's pass at the minimum forever.
    Job* job = nullptr;
    const size_t count = jobs_.size();
    size_t picked = 0;
    for (size_t k = 0; k < count; ++k) {
      const size_t slot = (rr_cursor_ + k) % count;
      Job* candidate = jobs_[slot];
      if (!Dispatchable(*candidate)) continue;
      if (job == nullptr || candidate->pass < job->pass) {
        job = candidate;
        picked = slot;
      }
    }
    if (job == nullptr) continue;  // raced with the last claim; re-wait
    rr_cursor_ = (picked + 1) % count;
    virtual_time_ = job->pass;
    job->pass += job->stride;

    // in_flight is raised before the lock drops, so a caller can never
    // observe its group quiesced while this worker is committed to it.
    ++job->in_flight;
    lock.unlock();
    // Fast path: while this is the only registered group, keep claiming
    // its morsels off the atomic counter without retaking the mutex —
    // single-query dispatch stays as lock-free as the old epoch design.
    // The moment another group registers (stale reads cost one morsel),
    // fall back to one-morsel-per-pick round-robin for fairness.
    while (RunOneMorsel(*job, worker_id) &&
           num_jobs_.load(std::memory_order_relaxed) == 1) {
    }
    lock.lock();
    --job->in_flight;
    if (Quiesced(*job)) done_cv_.notify_all();
  }
}

void ThreadPool::RunMorsels(Job& job, uint32_t worker_id) {
  while (RunOneMorsel(job, worker_id)) {
  }
}

bool ThreadPool::RunOneMorsel(Job& job, uint32_t worker_id) {
  try {
    if (job.abort.load(std::memory_order_relaxed)) return false;
    if (job.external_cancel != nullptr &&
        job.external_cancel->load(std::memory_order_relaxed)) {
      job.cancelled.store(true, std::memory_order_relaxed);
      job.abort.store(true, std::memory_order_relaxed);
      return false;
    }
    if (job.external_stop != nullptr &&
        job.external_stop->load(std::memory_order_relaxed)) {
      job.abort.store(true, std::memory_order_relaxed);
      return false;
    }
    // The per-morsel deadline probe is the amortized check the engines
    // rely on: one clock read per morsel_size items.
    if (job.deadline.Expired()) {
      job.timed_out.store(true, std::memory_order_relaxed);
      job.abort.store(true, std::memory_order_relaxed);
      return false;
    }
    const uint64_t begin =
        job.next.fetch_add(job.morsel, std::memory_order_relaxed);
    if (begin >= job.n) return false;
    (*job.body)(worker_id, begin, std::min(job.n, begin + job.morsel));
    return true;
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (job.exception == nullptr) job.exception = std::current_exception();
    job.abort.store(true, std::memory_order_relaxed);
    return false;
  }
}

}  // namespace wireframe
