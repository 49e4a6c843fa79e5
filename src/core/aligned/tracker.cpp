#include "core/aligned/tracker.hpp"

#include <cassert>

namespace crmd::core::aligned {

Tracker::Tracker(const Params& params, int min_class, int own_class)
    : params_(params), min_class_(min_class), own_class_(own_class) {
  assert(1 <= min_class && min_class <= own_class);
  classes_.resize(static_cast<std::size_t>(own_class - min_class) + 1);
}

void Tracker::reset_class(int cls) {
  ClassState& c = state(cls);
  c.estimation.emplace(params_, cls);
  c.broadcast.reset();
  c.broadcast_step = 0;
  c.position = {};
  c.estimate = -1;
  c.complete = false;
}

void Tracker::apply_resets(Slot t, Slot prev) {
  // Slots may arrive with gaps (clock skew slips the perceived index ahead;
  // crash/stall faults make a job miss slots entirely), but never backwards.
  // Class `cls` resets iff a window boundary (multiple of 2^cls) lies in
  // (prev, t], i.e. t >> cls differs from prev >> cls. A boundary of class
  // c+1 is also one of class c, so the reset classes form a prefix
  // min_class..k. On the first call every tracked class starts fresh;
  // fault-free, the first slot is the owning job's window start — a
  // boundary for every tracked (smaller) class — and later slots are
  // consecutive, so this reduces exactly to the textbook "reset when
  // t % 2^cls == 0" rule.
  const bool first = !started_;
  started_ = true;
  for (int cls = min_class_; cls <= own_class_; ++cls) {
    if (!first && (t >> cls) == (prev >> cls)) {
      break;
    }
    reset_class(cls);
  }
  active_ = min_class_;
}

void Tracker::advance_active() {
  for (int cls = active_ + 1; cls <= own_class_; ++cls) {
    if (!state(cls).complete) {
      active_ = cls;
      return;
    }
  }
  active_ = -1;
}

void Tracker::finish_estimation(ClassState& c) {
  c.estimate = c.estimation->estimate();
  c.broadcast.emplace(params_, active_, c.estimate);
  c.estimation.reset();
  if (c.broadcast->total_steps() == 0) {
    c.complete = true;  // believed-empty class: nothing to broadcast
  } else {
    c.position = c.broadcast->first();
  }
}

}  // namespace crmd::core::aligned
