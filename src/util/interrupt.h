#ifndef WIREFRAME_UTIL_INTERRUPT_H_
#define WIREFRAME_UTIL_INTERRUPT_H_

#include <atomic>
#include <cstdint>

#include "util/status.h"
#include "util/timer.h"

namespace wireframe {

/// Amortized cooperative-interrupt probe for work that a per-morsel check
/// cannot bound: the tuple-at-a-time baselines, the defactorizer's
/// recursion below one root, and barrier checks between morsel loops
/// (CheckNow). Hit() pays one relaxed cancel load plus one clock read
/// every `stride` calls (cancellation is checked first — it is the
/// cheaper load and the stronger signal) and is sticky once triggered,
/// so loops that cannot break out of a visitor callback stay cheap after
/// the interrupt. Morsel loops get the same checks per morsel from
/// ParallelFor, whose options carry the run's deadline and cancel flag
/// (EngineOptions::Morsels).
class InterruptProbe {
 public:
  /// Default: never interrupts (no deadline, no cancel flag).
  InterruptProbe() = default;
  /// `cancel` (borrowed, may be null) is polled with relaxed loads.
  explicit InterruptProbe(const Deadline& deadline,
                          const std::atomic<bool>* cancel = nullptr,
                          uint32_t stride = 4096)
      : deadline_(deadline), cancel_(cancel), stride_(stride) {}

  /// True once the run should stop (cancelled or past the deadline).
  bool Hit() {
    if (triggered_) return true;
    if (++tick_ % stride_ != 0) return false;
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      cancelled_ = true;
      triggered_ = true;
    } else if (deadline_.Expired()) {
      triggered_ = true;
    }
    return triggered_;
  }

  bool triggered() const { return triggered_; }
  bool cancelled() const { return cancelled_; }
  bool timed_out() const { return triggered_ && !cancelled_; }

  /// Maps a triggered probe to its status (Cancelled beats TimedOut);
  /// OK when the probe never triggered.
  Status StatusFor(const char* what) const {
    if (!triggered_) return Status::OK();
    return cancelled_ ? Status::Cancelled(what) : Status::TimedOut(what);
  }

  /// Unamortized probe for barrier points (level ends, join barriers):
  /// polls cancel + deadline right now regardless of the stride and
  /// returns the mapped status. Pairs with WF_RETURN_NOT_OK.
  Status CheckNow(const char* what) {
    if (!triggered_) {
      if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
        cancelled_ = true;
        triggered_ = true;
      } else if (deadline_.Expired()) {
        triggered_ = true;
      }
    }
    return StatusFor(what);
  }

 private:
  Deadline deadline_;
  const std::atomic<bool>* cancel_ = nullptr;
  uint32_t stride_ = 4096;
  uint32_t tick_ = 0;
  bool triggered_ = false;
  bool cancelled_ = false;
};

}  // namespace wireframe

#endif  // WIREFRAME_UTIL_INTERRUPT_H_
