#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace wireframe {
namespace {

TEST(ThreadPoolTest, ResolveThreadsMapsZeroToHardware) {
  EXPECT_GE(ThreadPool::ResolveThreads(0), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreads(1), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreads(7), 7u);
}

TEST(ThreadPoolTest, EmptyRangeRunsNothing) {
  ThreadPool pool(4);
  std::atomic<uint64_t> calls{0};
  Status st = pool.ParallelFor(
      0, {}, [&](uint32_t, uint64_t, uint64_t) { ++calls; });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls.load(), 0u);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  for (uint32_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    constexpr uint64_t kN = 10000;
    std::vector<std::atomic<uint32_t>> visits(kN);
    ParallelForOptions options;
    options.morsel_size = 7;  // deliberately not a divisor of kN
    Status st = pool.ParallelFor(
        kN, options, [&](uint32_t, uint64_t begin, uint64_t end) {
          ASSERT_EQ(begin % 7, 0u) << "morsels start at morsel multiples";
          for (uint64_t i = begin; i < end; ++i) {
            visits[i].fetch_add(1, std::memory_order_relaxed);
          }
        });
    ASSERT_TRUE(st.ok());
    for (uint64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(visits[i].load(), 1u) << "index " << i;
    }
  }
}

TEST(ThreadPoolTest, WorkerIdsAreInRangeAndZeroIsTheCaller) {
  ThreadPool pool(4);
  std::atomic<uint32_t> max_worker{0};
  const std::thread::id caller = std::this_thread::get_id();
  ParallelForOptions options;
  options.morsel_size = 1;
  Status st = pool.ParallelFor(
      1000, options, [&](uint32_t worker, uint64_t, uint64_t) {
        uint32_t seen = max_worker.load();
        while (worker > seen &&
               !max_worker.compare_exchange_weak(seen, worker)) {
        }
        // Worker id 0 is reserved for the calling thread; whether the
        // caller actually claims a morsel is a scheduling race (spawned
        // workers may drain the range first), so only the id mapping is
        // asserted.
        if (std::this_thread::get_id() == caller) {
          EXPECT_EQ(worker, 0u);
        } else {
          EXPECT_NE(worker, 0u);
        }
      });
  ASSERT_TRUE(st.ok());
  EXPECT_LT(max_worker.load(), 4u);
}

TEST(ThreadPoolTest, SingleThreadRunsInlineOnCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  uint64_t sum = 0;  // unsynchronized on purpose: everything is inline
  Status st = pool.ParallelFor(
      100, {}, [&](uint32_t worker, uint64_t begin, uint64_t end) {
        EXPECT_EQ(worker, 0u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        for (uint64_t i = begin; i < end; ++i) sum += i;
      });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(sum, 99ull * 100 / 2);
}

// The process-wide inline pool: one instance, no workers, and concurrent
// callers each run every morsel of their own loop on their own thread.
TEST(ThreadPoolTest, InlinePoolRunsEachCallersLoopOnThatCaller) {
  ThreadPool* pool = InlinePool();
  ASSERT_EQ(pool, InlinePool());
  EXPECT_EQ(pool->num_threads(), 1u);
  constexpr int kCallers = 4;
  constexpr uint64_t kN = 5000;
  std::vector<uint64_t> sums(kCallers, 0);
  // One byte per caller (not vector<bool>, whose bits share words).
  std::vector<char> inline_only(kCallers, 1);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      const std::thread::id self = std::this_thread::get_id();
      ParallelForOptions options;
      options.morsel_size = 16;
      const Status st = pool->ParallelFor(
          kN, options, [&](uint32_t worker, uint64_t begin, uint64_t end) {
            if (worker != 0 || std::this_thread::get_id() != self) {
              inline_only[c] = 0;
            }
            for (uint64_t i = begin; i < end; ++i) sums[c] += i;
          });
      EXPECT_TRUE(st.ok());
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(inline_only[c], 1) << "caller " << c;
    EXPECT_EQ(sums[c], (kN - 1) * kN / 2) << "caller " << c;
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  ParallelForOptions options;
  options.morsel_size = 1;
  EXPECT_THROW(
      {
        pool.ParallelFor(1000, options,
                         [&](uint32_t, uint64_t begin, uint64_t) {
                           if (begin == 500) {
                             throw std::runtime_error("body failed");
                           }
                         });
      },
      std::runtime_error);

  // The pool survives a throwing job and runs the next one.
  std::atomic<uint64_t> calls{0};
  Status st = pool.ParallelFor(
      64, options, [&](uint32_t, uint64_t, uint64_t) { ++calls; });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls.load(), 64u);
}

TEST(ThreadPoolTest, DeadlineExpiryMidRunReturnsTimedOut) {
  ThreadPool pool(2);
  ParallelForOptions options;
  options.morsel_size = 1;
  options.deadline = Deadline::AfterSeconds(0.02);
  std::atomic<uint64_t> calls{0};
  Status st = pool.ParallelFor(
      1u << 20, options, [&](uint32_t, uint64_t, uint64_t) {
        ++calls;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      });
  EXPECT_TRUE(st.IsTimedOut()) << st.ToString();
  EXPECT_LT(calls.load(), 1u << 20) << "dispatch must stop at the deadline";
}

TEST(ThreadPoolTest, AlreadyExpiredDeadlineRunsNoBody) {
  ThreadPool pool(2);
  ParallelForOptions options;
  options.deadline = Deadline::AlreadyExpired();
  std::atomic<uint64_t> calls{0};
  Status st = pool.ParallelFor(
      1000, options, [&](uint32_t, uint64_t, uint64_t) { ++calls; });
  EXPECT_TRUE(st.IsTimedOut());
  EXPECT_EQ(calls.load(), 0u);
}

TEST(ThreadPoolTest, StopFlagEndsDispatchWithOkStatus) {
  ThreadPool pool(2);
  std::atomic<bool> stop{false};
  ParallelForOptions options;
  options.morsel_size = 1;
  options.stop = &stop;
  std::atomic<uint64_t> calls{0};
  Status st = pool.ParallelFor(
      1u << 20, options, [&](uint32_t, uint64_t, uint64_t) {
        if (calls.fetch_add(1) == 100) stop.store(true);
      });
  EXPECT_TRUE(st.ok()) << "early stop is a result, not an error";
  EXPECT_LT(calls.load(), 1u << 20);
}

TEST(ThreadPoolTest, CancelFlagSurfacesAsCancelled) {
  ThreadPool pool(2);
  std::atomic<bool> cancel{false};
  ParallelForOptions options;
  options.morsel_size = 1;
  options.cancel = &cancel;
  std::atomic<uint64_t> calls{0};
  Status st = pool.ParallelFor(
      1u << 20, options, [&](uint32_t, uint64_t, uint64_t) {
        if (calls.fetch_add(1) == 100) cancel.store(true);
      });
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
  EXPECT_LT(calls.load(), 1u << 20) << "dispatch must stop on cancel";
}

TEST(ThreadPoolTest, PreSetCancelRunsNoBody) {
  ThreadPool pool(2);
  std::atomic<bool> cancel{true};
  ParallelForOptions options;
  options.cancel = &cancel;
  std::atomic<uint64_t> calls{0};
  Status st = pool.ParallelFor(
      1000, options, [&](uint32_t, uint64_t, uint64_t) { ++calls; });
  EXPECT_TRUE(st.IsCancelled());
  EXPECT_EQ(calls.load(), 0u);
}

// The shared-runtime contract: ParallelFor may be called concurrently
// from many external threads against one pool, and every call covers its
// own range exactly once.
TEST(ThreadPoolTest, ConcurrentSubmissionsFromManyThreads) {
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  constexpr uint64_t kN = 20000;
  std::vector<uint64_t> sums(kCallers, 0);
  std::vector<Status> statuses(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      std::atomic<uint64_t> sum{0};
      ParallelForOptions options;
      options.morsel_size = 16;
      statuses[c] = pool.ParallelFor(
          kN, options, [&](uint32_t, uint64_t begin, uint64_t end) {
            uint64_t local = 0;
            for (uint64_t i = begin; i < end; ++i) local += i;
            sum.fetch_add(local, std::memory_order_relaxed);
          });
      sums[c] = sum.load();
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_TRUE(statuses[c].ok()) << "caller " << c;
    EXPECT_EQ(sums[c], (kN - 1) * kN / 2) << "caller " << c;
  }
}

// One caller's deadline expiry (or exception) must not disturb another
// in-flight task-group on the same pool.
TEST(ThreadPoolTest, FailingGroupLeavesConcurrentGroupIntact) {
  ThreadPool pool(4);
  std::atomic<uint64_t> good_calls{0};
  Status good_status;
  std::thread good([&] {
    ParallelForOptions options;
    options.morsel_size = 4;
    good_status = pool.ParallelFor(
        4096, options, [&](uint32_t, uint64_t begin, uint64_t end) {
          good_calls.fetch_add(end - begin, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        });
  });
  std::thread bad([&] {
    ParallelForOptions options;
    options.morsel_size = 1;
    options.deadline = Deadline::AlreadyExpired();
    Status st = pool.ParallelFor(
        1u << 20, options, [&](uint32_t, uint64_t, uint64_t) {});
    EXPECT_TRUE(st.IsTimedOut());
  });
  bad.join();
  good.join();
  EXPECT_TRUE(good_status.ok()) << good_status.ToString();
  EXPECT_EQ(good_calls.load(), 4096u);
}

// Fairness: while a long task-group holds the pool, the single spawned
// worker must round-robin into a newly submitted short group (its caller
// drains its own morsels anyway, so worker participation — not mere
// completion — is what proves the scheduler interleaves groups).
TEST(ThreadPoolTest, WorkerServesShortGroupWhileLongGroupRuns) {
  ThreadPool pool(2);  // exactly one spawned worker
  std::atomic<bool> stop_long{false};
  std::atomic<uint64_t> long_calls{0};
  std::atomic<bool> long_done{false};
  std::thread long_caller([&] {
    ParallelForOptions options;
    options.morsel_size = 1;
    options.stop = &stop_long;
    Status st = pool.ParallelFor(
        1u << 20, options, [&](uint32_t, uint64_t, uint64_t) {
          long_calls.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        });
    EXPECT_TRUE(st.ok()) << st.ToString();
    long_done.store(true);
  });
  while (long_calls.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();  // long group provably occupies the pool
  }

  // Short group: slow morsels keep it dispatchable long enough that the
  // worker, alternating between the two groups, must claim some.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<uint64_t> short_worker_morsels{0};
  ParallelForOptions options;
  options.morsel_size = 1;
  Status st = pool.ParallelFor(
      128, options, [&](uint32_t worker, uint64_t, uint64_t) {
        if (std::this_thread::get_id() != caller) {
          EXPECT_GT(worker, 0u);
          short_worker_morsels.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      });
  EXPECT_TRUE(st.ok());
  EXPECT_FALSE(long_done.load())
      << "the short group must finish while the long group runs";
  EXPECT_GT(short_worker_morsels.load(), 0u)
      << "round-robin must hand the worker short-group morsels";
  stop_long.store(true);
  long_caller.join();
}

// Stride-weighted scheduling: with exactly one spawned worker and two
// always-dispatchable groups of weights 4 and 1, the worker's picks must
// divide roughly 4:1 (the stride math makes this deterministic up to the
// rotation of the very first ties, so generous 2x bounds cannot flap).
TEST(ThreadPoolTest, WorkerPicksSplitByWeight) {
  ThreadPool pool(2);  // exactly one spawned worker
  std::atomic<bool> stop_heavy{false};
  std::atomic<bool> stop_light{false};
  std::atomic<uint64_t> heavy_worker_picks{0};
  std::atomic<uint64_t> light_worker_picks{0};

  std::thread heavy_caller([&] {
    ParallelForOptions options;
    options.morsel_size = 1;
    options.stop = &stop_heavy;
    options.weight = 4;
    Status st = pool.ParallelFor(
        1ull << 40, options, [&](uint32_t worker, uint64_t, uint64_t) {
          if (worker != 0) {
            heavy_worker_picks.fetch_add(1, std::memory_order_relaxed);
          }
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        });
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
  // The heavy group must be registered before the light one starts:
  // whichever group is alone on the pool gets the lock-free fast path's
  // picks for free, and that startup bias has to point at the heavy
  // group for the ratio assertion to be one-sided.
  while (heavy_worker_picks.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  std::thread light_caller([&] {
    ParallelForOptions options;
    options.morsel_size = 1;
    options.stop = &stop_light;
    options.weight = 1;
    Status st = pool.ParallelFor(
        1ull << 40, options, [&](uint32_t worker, uint64_t, uint64_t) {
          if (worker != 0) {
            light_worker_picks.fetch_add(1, std::memory_order_relaxed);
          }
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        });
    EXPECT_TRUE(st.ok()) << st.ToString();
  });

  // Measure deltas strictly while both groups are active (from the light
  // group's first worker pick onward): in that regime the single worker
  // follows the stride schedule, 4 heavy picks per light pick, exactly.
  while (light_worker_picks.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  const uint64_t heavy_base = heavy_worker_picks.load();
  const uint64_t light_base = light_worker_picks.load();
  while (heavy_worker_picks.load(std::memory_order_relaxed) <
         heavy_base + 200) {
    std::this_thread::yield();
  }
  stop_heavy.store(true);
  stop_light.store(true);
  heavy_caller.join();
  light_caller.join();

  const uint64_t heavy = heavy_worker_picks.load() - heavy_base;
  const uint64_t light = light_worker_picks.load() - light_base;
  EXPECT_GT(light, 0u) << "weighted scheduling must not starve the light group";
  EXPECT_GE(heavy, 2 * light)
      << "weight 4 vs 1 must skew worker picks (heavy=" << heavy
      << ", light=" << light << ")";
}

// Extreme weights (1:1000) must neither overflow the stride arithmetic
// nor starve the light group: its ParallelFor completes while the heavy
// group still floods the pool (the caller thread guarantees progress and
// the stride floor guarantees eventual worker visits).
TEST(ThreadPoolTest, ExtremeWeightRatioIsStarvationFree) {
  ThreadPool pool(2);
  std::atomic<bool> stop_heavy{false};
  std::atomic<bool> heavy_done{false};
  std::thread heavy_caller([&] {
    ParallelForOptions options;
    options.morsel_size = 1;
    options.stop = &stop_heavy;
    options.weight = 1000;
    Status st = pool.ParallelFor(
        1ull << 40, options, [&](uint32_t, uint64_t, uint64_t) {
          std::this_thread::sleep_for(std::chrono::microseconds(10));
        });
    EXPECT_TRUE(st.ok()) << st.ToString();
    heavy_done.store(true);
  });

  ParallelForOptions options;
  options.morsel_size = 1;
  options.weight = 1;
  std::atomic<uint64_t> covered{0};
  Status st = pool.ParallelFor(
      512, options, [&](uint32_t, uint64_t begin, uint64_t end) {
        covered.fetch_add(end - begin, std::memory_order_relaxed);
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(covered.load(), 512u);
  EXPECT_FALSE(heavy_done.load())
      << "the light group must finish while the heavy group runs";
  stop_heavy.store(true);
  heavy_caller.join();
}

// Degenerate weights are clamped, not UB: weight 0 behaves like 1 and a
// weight beyond the stride scale still advances the group's pass.
TEST(ThreadPoolTest, DegenerateWeightsAreClamped) {
  ThreadPool pool(4);
  for (uint32_t weight : {0u, 1u, 1u << 30, UINT32_MAX}) {
    ParallelForOptions options;
    options.morsel_size = 8;
    options.weight = weight;
    std::atomic<uint64_t> covered{0};
    Status st = pool.ParallelFor(
        4096, options, [&](uint32_t, uint64_t begin, uint64_t end) {
          covered.fetch_add(end - begin, std::memory_order_relaxed);
        });
    ASSERT_TRUE(st.ok()) << "weight " << weight << ": " << st.ToString();
    ASSERT_EQ(covered.load(), 4096u) << "weight " << weight;
  }
}

TEST(ThreadPoolTest, PoolIsReusableAcrossManyLoops) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<uint64_t> sum{0};
    ParallelForOptions options;
    options.morsel_size = 16;
    Status st = pool.ParallelFor(
        256, options, [&](uint32_t, uint64_t begin, uint64_t end) {
          uint64_t local = 0;
          for (uint64_t i = begin; i < end; ++i) local += i;
          sum.fetch_add(local, std::memory_order_relaxed);
        });
    ASSERT_TRUE(st.ok());
    ASSERT_EQ(sum.load(), 255ull * 256 / 2) << "round " << round;
  }
}

}  // namespace
}  // namespace wireframe
