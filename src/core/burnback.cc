#include "core/burnback.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "util/logging.h"
#include "util/timer.h"

namespace wireframe {

template <typename OnDeath>
uint64_t Burnback::KillOne(const Death& d, std::vector<std::mutex>* set_mu,
                           OnDeath&& on_death) {
  uint64_t erased = 0;
  for (uint32_t f : ag_->IncidentSets(d.var)) {
    if (!ag_->IsMaterialized(f)) continue;
    const bool at_src = ag_->SrcVar(f) == d.var;
    const VarId other = at_src ? ag_->DstVar(f) : ag_->SrcVar(f);
    std::unique_lock<std::mutex> lock;
    if (set_mu != nullptr) lock = std::unique_lock<std::mutex>((*set_mu)[f]);
    PairSet& set = ag_->Set(f);
    // The erase sweeps hand back the neighbor's count after it dropped,
    // so a zero is the neighbor's 1 -> 0 transition, seen exactly once.
    auto on_erased = [&](NodeId w, uint32_t left) {
      if (left == 0) on_death({other, w, d.depth + 1});
    };
    erased += at_src ? set.EraseSrc(d.node, on_erased)
                     : set.EraseDst(d.node, on_erased);
  }
  return erased;
}

void Burnback::DrainSerial() {
  while (!worklist_.empty()) {
    const Death d = worklist_.back();
    worklist_.pop_back();
    max_depth_ = std::max(max_depth_, d.depth);
    pairs_erased_ += KillOne(
        d, nullptr, [&](const Death& next) { worklist_.push_back(next); });
  }
}

void Burnback::DrainParallel() {
  ThreadPool* pool = options_.pool;
  const uint32_t num_shards = pool->num_threads();

  // One short mutex per edge set: a death at each endpoint of the same
  // set may be processed by different shards, and every PairSet mutation
  // (and count read feeding death detection) happens under the set's
  // lock, so the 1→0 count transition is observed exactly once.
  std::vector<std::mutex> set_mu(ag_->NumEdgeSets());

  struct Shard {
    /// Deaths this shard owns and has accepted (single-consumer).
    std::vector<Death> local;
    /// MPSC inbox: deaths handed off by other shards.
    std::mutex inbox_mu;
    std::vector<Death> inbox;
    uint64_t erased = 0;
    uint64_t handoffs = 0;
    uint32_t max_depth = 0;
  };
  std::vector<Shard> shards(num_shards);
  for (const Death& d : worklist_) {
    shards[d.var % num_shards].local.push_back(d);
  }
  // Deaths enqueued anywhere but not yet processed. Incremented before a
  // death is pushed and decremented after it is processed, so the count
  // can only read zero once every queue is empty.
  std::atomic<uint64_t> pending{worklist_.size()};
  worklist_.clear();

  auto enqueue = [&](Shard& me, uint32_t my_index, const Death& d) {
    pending.fetch_add(1, std::memory_order_relaxed);
    const uint32_t owner = d.var % num_shards;
    if (owner == my_index) {
      me.local.push_back(d);
      return;
    }
    ++me.handoffs;
    std::lock_guard<std::mutex> lock(shards[owner].inbox_mu);
    shards[owner].inbox.push_back(d);
  };

  auto process = [&](Shard& me, uint32_t my_index, const Death& d) {
    me.max_depth = std::max(me.max_depth, d.depth);
    me.erased += KillOne(d, &set_mu, [&](const Death& next) {
      enqueue(me, my_index, next);
    });
  };

  // Shards drain in rounds: each round runs one non-blocking drain loop
  // per shard on the pool (bodies exit when their queues are momentarily
  // empty rather than spinning, so the round terminates even when the
  // pool serializes the shard loops onto one thread). A handoff that
  // lands in a shard whose loop already exited is picked up next round;
  // every round with pending deaths processes at least one, so the
  // outer loop terminates.
  while (pending.load(std::memory_order_acquire) > 0) {
    ParallelForOptions pf;
    pf.morsel_size = 1;
    pf.weight = options_.weight;
    const Status st = pool->ParallelFor(
        num_shards, pf, [&](uint32_t, uint64_t begin, uint64_t) {
          Shard& me = shards[begin];
          const uint32_t my_index = static_cast<uint32_t>(begin);
          for (;;) {
            if (me.local.empty()) {
              std::lock_guard<std::mutex> lock(me.inbox_mu);
              me.local.swap(me.inbox);
            }
            if (me.local.empty()) break;
            const Death d = me.local.back();
            me.local.pop_back();
            process(me, my_index, d);
            pending.fetch_sub(1, std::memory_order_release);
          }
        });
    WF_CHECK(st.ok()) << "burnback drain has no deadline";

    // A cascade that narrows below the threshold — e.g. a long
    // dependency chain alternating between owners — would otherwise pay
    // one task-group barrier per level for inherently sequential work.
    // Pull the leftovers back and finish on the serial drain. Safe
    // without the inbox locks: ParallelFor is a barrier, no body runs.
    if (pending.load(std::memory_order_acquire) <
        options_.parallel_threshold) {
      for (Shard& shard : shards) {
        worklist_.insert(worklist_.end(), shard.local.begin(),
                         shard.local.end());
        worklist_.insert(worklist_.end(), shard.inbox.begin(),
                         shard.inbox.end());
        shard.local.clear();
        shard.inbox.clear();
      }
      break;
    }
  }

  for (const Shard& shard : shards) {
    pairs_erased_ += shard.erased;
    handoffs_ += shard.handoffs;
    max_depth_ = std::max(max_depth_, shard.max_depth);
  }
  DrainSerial();  // finish any below-threshold tail (no-op when empty)
}

void Burnback::Drain() {
  if (options_.pool != nullptr && options_.pool->num_threads() > 1 &&
      worklist_.size() >= options_.parallel_threshold) {
    DrainParallel();
  } else {
    DrainSerial();
  }
}

uint64_t Burnback::KillNode(VarId v, NodeId c) {
  const Stopwatch watch;
  const uint64_t before = pairs_erased_;
  worklist_.push_back({v, c, 1});
  Drain();
  seconds_ += watch.ElapsedSeconds();
  return pairs_erased_ - before;
}

uint64_t Burnback::ErasePair(uint32_t index, NodeId u, NodeId v) {
  const Stopwatch watch;
  const uint64_t before = pairs_erased_;
  PairSet& set = ag_->Set(index);
  if (!set.Erase(u, v)) {
    seconds_ += watch.ElapsedSeconds();
    return 0;
  }
  ++pairs_erased_;
  if (ag_->CountAt(index, ag_->SrcVar(index), u) == 0) {
    worklist_.push_back({ag_->SrcVar(index), u, 1});
  }
  if (ag_->CountAt(index, ag_->DstVar(index), v) == 0) {
    worklist_.push_back({ag_->DstVar(index), v, 1});
  }
  Drain();
  seconds_ += watch.ElapsedSeconds();
  return pairs_erased_ - before;
}

uint64_t Burnback::PruneAfterExtension(uint32_t index, bool src_was_touched,
                                       bool dst_was_touched) {
  const Stopwatch watch;
  const uint64_t before = pairs_erased_;
  const VarId endpoints[2] = {ag_->SrcVar(index), ag_->DstVar(index)};
  const bool was_touched[2] = {src_was_touched, dst_was_touched};

  for (int side = 0; side < 2; ++side) {
    if (!was_touched[side]) continue;
    const VarId v = endpoints[side];

    // Seed the worklist first: KillOne mutates the sets being scanned,
    // and a bulk seed list is what the parallel drain partitions. The
    // candidates are judged without `index`; a variable no other set
    // constrains has none.
    ag_->ForEachStarved(v, index,
                        [&](NodeId c) { worklist_.push_back({v, c, 1}); });
    Drain();
  }
  seconds_ += watch.ElapsedSeconds();
  return pairs_erased_ - before;
}

}  // namespace wireframe
