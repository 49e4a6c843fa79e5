#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/aligned/broadcast.hpp"
#include "core/aligned/estimation.hpp"
#include "core/params.hpp"
#include "sim/channel.hpp"
#include "util/types.hpp"

/// \file tracker.hpp
/// The replicated pecking-order schedule (§3).
///
/// At any time exactly one job class is *active*: the smallest class whose
/// current window's algorithm (estimation followed by broadcast) has not
/// completed. Every live job runs an identical copy of this tracker,
/// advancing it from two inputs only — the slot clock (window boundaries
/// reset classes: each "critical time" starts a fresh window) and the
/// observed channel outcome of each slot. Because a job activates at its
/// own window start, which is simultaneously a boundary for every smaller
/// class, all replicas of all live jobs agree on every tracked class's
/// state (Lemma 7); tests/test_aligned_invariants.cpp checks this
/// agreement as an executable invariant.
///
/// The same machinery serves PUNCTUAL's followers with "slot" reinterpreted
/// as the leader-frame round index (§4's FOLLOW-THE-LEADER runs ALIGNED
/// inside the aligned slot of each round).

namespace crmd::core::aligned {

/// Replicated per-job view of the pecking order across classes
/// [min_class, own_class].
class Tracker {
 public:
  /// Tracks classes min_class..own_class (inclusive); requires
  /// 1 <= min_class <= own_class.
  Tracker(const Params& params, int min_class, int own_class);

  /// Starts slot `t`: applies window-boundary resets, then fixes the active
  /// class for this slot. Calls must use strictly increasing (not
  /// necessarily consecutive) values of `t` — fault injection (clock skew,
  /// crash stalls) can make the perceived slot index jump ahead. Every
  /// class whose dyadic boundary was crossed since the previous call is
  /// reset; on the first call all tracked classes start fresh. Fault-free
  /// (first call at the owning job's window start, consecutive slots) this
  /// is exactly the §3 "reset at critical times" rule. O(1) unless a
  /// boundary was crossed (DESIGN.md §3, "Constant-time replica").
  void begin_slot(Slot t) {
    assert(t >= 0);
    assert(!started_ || t > last_slot_);
    const Slot prev = last_slot_;
    last_slot_ = t;
    // No boundary of the finest tracked class in (prev, t] means none of
    // any coarser class either: every multiple of 2^c (c >= min_class) is
    // a multiple of 2^min_class.
    if (!started_ || (t >> min_class_) != (prev >> min_class_)) {
      apply_resets(t, prev);
    } else if (active_ != -1 && state(active_).complete) {
      advance_active();
    }
  }

  /// The class taking an active step this slot, or -1 when every tracked
  /// class has completed. Valid between begin_slot and end_slot.
  [[nodiscard]] int active_class() const noexcept { return active_; }

  /// Finishes slot `t` with the observed channel outcome, advancing the
  /// active class's algorithm by one active step.
  void end_slot(sim::SlotOutcome outcome) {
    assert(started_);
    if (active_ == -1) {
      return;
    }
    ClassState& c = state(active_);
    assert(!c.complete);
    if (c.estimation.has_value()) {
      c.estimation->record(outcome);
      if (c.estimation->complete()) {
        finish_estimation(c);
      }
      return;
    }
    assert(c.broadcast.has_value());
    if (++c.broadcast_step >= c.broadcast->total_steps()) {
      c.complete = true;
    } else {
      c.broadcast->advance(c.position);
    }
  }

  /// Read-only snapshot of one tracked class's progress.
  struct ClassView {
    /// True while the class is in its estimation stage.
    bool estimating = false;
    /// Estimation bookkeeping (null once estimation finished).
    const EstimationState* estimation = nullptr;
    /// Broadcast layout (null until the estimate is known).
    const BroadcastSchedule* broadcast = nullptr;
    /// Active steps taken inside the broadcast stage.
    std::int64_t broadcast_step = 0;
    /// Where the next broadcast step falls (equals
    /// broadcast->position(broadcast_step)); valid while the class is in
    /// its broadcast stage and not complete.
    BroadcastSchedule::Position position;
    /// The class's estimate; -1 while still estimating.
    std::int64_t estimate = -1;
    /// True once the class's algorithm for its current window completed.
    bool complete = false;
  };

  /// Snapshot of class `cls` (min_class <= cls <= own_class).
  [[nodiscard]] ClassView view(int cls) const {
    const ClassState& c = state(cls);
    ClassView v;
    v.estimating = c.estimation.has_value();
    v.estimation = v.estimating ? &*c.estimation : nullptr;
    v.broadcast = c.broadcast.has_value() ? &*c.broadcast : nullptr;
    v.broadcast_step = c.broadcast_step;
    v.position = c.position;
    v.estimate = c.estimate;
    v.complete = c.complete;
    return v;
  }

  [[nodiscard]] int min_class() const noexcept { return min_class_; }
  [[nodiscard]] int own_class() const noexcept { return own_class_; }

 private:
  struct ClassState {
    std::optional<EstimationState> estimation;
    std::optional<BroadcastSchedule> broadcast;
    std::int64_t broadcast_step = 0;
    BroadcastSchedule::Position position;  // cursor at broadcast_step
    std::int64_t estimate = -1;
    bool complete = false;
  };

  /// Resets every class whose boundary lies in (prev, t] (all of them on
  /// the first call); the finest class is always among them and becomes
  /// active.
  void apply_resets(Slot t, Slot prev);
  /// The active class just completed: moves to the next incomplete class.
  void advance_active();
  /// Estimation ended: fixes the estimate and lays out the broadcast.
  void finish_estimation(ClassState& c);
  void reset_class(int cls);

  [[nodiscard]] ClassState& state(int cls) {
    assert(cls >= min_class_ && cls <= own_class_);
    return classes_[static_cast<std::size_t>(cls - min_class_)];
  }
  [[nodiscard]] const ClassState& state(int cls) const {
    assert(cls >= min_class_ && cls <= own_class_);
    return classes_[static_cast<std::size_t>(cls - min_class_)];
  }

  Params params_;
  int min_class_;
  int own_class_;
  std::vector<ClassState> classes_;
  // Smallest incomplete class (-1: none). Classes below it are complete,
  // so it changes only on a reset or when it completes itself.
  int active_ = -1;
  bool started_ = false;
  Slot last_slot_ = 0;
};

}  // namespace crmd::core::aligned
