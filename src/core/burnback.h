#ifndef WIREFRAME_CORE_BURNBACK_H_
#define WIREFRAME_CORE_BURNBACK_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "core/answer_graph.h"
#include "util/thread_pool.h"

namespace wireframe {

/// Knobs of one Burnback instance (how cascades drain).
struct BurnbackOptions {
  /// Worker pool (borrowed, may be null). Null or single-threaded drains
  /// every cascade serially; otherwise cascades whose seed worklist
  /// reaches `parallel_threshold` drain on the pool (see Burnback).
  ThreadPool* pool = nullptr;
  /// Scheduler weight of the drain's task-groups on a shared pool
  /// (service class of the owning query; see ParallelForOptions::weight).
  uint32_t weight = 1;
  /// Minimum seed-worklist size before a cascade drains in parallel;
  /// below it the per-drain setup (shards, per-set mutexes) costs more
  /// than it saves. Tests pin this to 1 to force the parallel path on
  /// small fixtures.
  uint64_t parallel_threshold = 64;
};

/// Cascading node burnback (paper §3): "nodes in the AG that failed to
/// extend are removed. This 'node burnback' cascades."
///
/// A node dies at a variable as soon as any materialized incident edge set
/// holds no live pair for it; killing it erases its incident pairs from
/// every materialized incident set, which may starve neighbor nodes at the
/// opposite variables — a worklist drains the cascade to fixpoint. The
/// fixpoint is exactly arc consistency over the materialized edge sets
/// (tests certify this against a naive oracle), and arc consistency is a
/// monotone closure: the surviving pair sets are the unique maximal
/// arc-consistent subset, independent of the order deaths are processed
/// in. That confluence is what licenses the parallel drain below.
///
/// Parallel drain (ROADMAP: "partitioned worklists with ownership by
/// variable"): the cascade worklist is partitioned by owning variable
/// into one shard per pool worker (owner(v) = v mod workers). A death for
/// variable v is processed only by v's owner; deaths discovered for
/// another partition are handed off through that shard's MPSC inbox.
/// Erasures lock the affected edge set (one short per-set mutex — a death
/// at each endpoint of the same set may land in different shards), and
/// shards drain in rounds on the shared ThreadPool until a global
/// in-flight counter hits zero, the task-group weight riding in. Both
/// drains run one kill body (KillOne). The fixpoint is confluent, so the
/// set of surviving pairs does not depend on the order deaths are
/// processed in; and erasing a pair only clears its live bit and lowers
/// its endpoints' counters, so no order leaves a trace in the sets
/// either — the spans never move, and Freeze keeps exactly the live
/// entries. The surviving AnswerGraph and pairs_erased() (pairs before
/// minus pairs after) are therefore identical for every thread count;
/// only the diagnostic depth/handoff counters are schedule-dependent.
///
/// Seeding (PruneAfterExtension): the nodes an extension starves are the
/// candidates of each constrained endpoint, judged without the new set,
/// that hold no live pair in it. They are found in one merge of the
/// pilot set's live keys with the new set's sorted keys
/// (AnswerGraph::ForEachStarved): a key the new set holds with a live
/// count is covered at no lookup cost, and only the others are checked
/// for aliveness. A key the new set holds whose pairs were all erased is
/// not covered. Inside a drain, the erase sweeps hand each neighbor's
/// surviving count to the kill body, so detecting a death costs no
/// lookup either.
///
/// Cost accounting: every erased pair was added by an earlier edge walk,
/// so burnback is amortized into extension cost (paper §4); the class
/// still counts erased pairs for diagnostics.
class Burnback {
 public:
  explicit Burnback(AnswerGraph* ag, BurnbackOptions options = {})
      : ag_(ag), options_(options) {}

  /// Kills node c at variable v and drains the cascade. Returns the
  /// number of pairs erased (cascade included).
  uint64_t KillNode(VarId v, NodeId c);

  /// Erases one pair from edge set `index` (edge burnback's entry point)
  /// and drains any resulting node deaths. Returns pairs erased.
  uint64_t ErasePair(uint32_t index, NodeId u, NodeId v);

  /// After materializing edge set `index`: kills every previously-alive
  /// endpoint candidate that failed to extend into `index`, then drains.
  /// `src_was_touched` / `dst_was_touched` say whether the endpoint vars
  /// were already constrained before this extension (freshly touched
  /// variables need no pruning: the new set defines their candidates).
  uint64_t PruneAfterExtension(uint32_t index, bool src_was_touched,
                               bool dst_was_touched);

  /// Total pairs erased through this Burnback instance. Thread-count
  /// invariant.
  uint64_t pairs_erased() const { return pairs_erased_; }

  /// Deepest cascade level any death reached (seed deaths are depth 1).
  /// Diagnostic: schedule-dependent under the parallel drain.
  uint32_t max_cascade_depth() const { return max_depth_; }

  /// Deaths handed off across worklist partitions (0 on serial drains).
  /// Diagnostic: schedule-dependent.
  uint64_t handoffs() const { return handoffs_; }

  /// Wall seconds spent inside this instance's public entry points
  /// (seed scans + cascade drains), summed across calls.
  double seconds() const { return seconds_; }

 private:
  struct Death {
    VarId var;
    NodeId node;
    /// Cascade level: 1 for seeds, parent + 1 for starved neighbors.
    uint32_t depth;
  };

  /// Erases every pair incident to (d.var, d.node) from its materialized
  /// sets, calls on_death(death) for each neighbor that is left with no
  /// pair in a set, and returns the pairs erased. The one kill body of
  /// both drains: the serial drain passes a null `set_mu`; the parallel
  /// drain passes its per-set mutexes, and each set's erasure, with the
  /// surviving counts it hands back to detect deaths, then runs under
  /// that set's lock.
  template <typename OnDeath>
  uint64_t KillOne(const Death& d, std::vector<std::mutex>* set_mu,
                   OnDeath&& on_death);
  /// Drains worklist_ to fixpoint, serially or in parallel per
  /// BurnbackOptions and the seed size.
  void Drain();
  void DrainSerial();
  void DrainParallel();

  AnswerGraph* ag_;
  BurnbackOptions options_;
  std::vector<Death> worklist_;
  uint64_t pairs_erased_ = 0;
  uint32_t max_depth_ = 0;
  uint64_t handoffs_ = 0;
  double seconds_ = 0.0;
};

}  // namespace wireframe

#endif  // WIREFRAME_CORE_BURNBACK_H_
