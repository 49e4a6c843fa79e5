#include "layers.hpp"

#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace crmd_bench {
namespace {

using crmd::Slot;
using crmd::sim::DormantSpan;
using crmd::sim::JobInfo;
using crmd::sim::Protocol;
using crmd::sim::SlotAction;
using crmd::sim::SlotFeedback;
using crmd::sim::SlotView;

// The signal handler touches only these two: constant-initialised,
// trivially destructible thread-locals, which need no guard to reach.
thread_local volatile std::sig_atomic_t t_layer = 0;
thread_local std::int64_t t_ticks[kLayers] = {};

extern "C" void on_tick(int /*signal*/) {
  ++t_ticks[static_cast<std::size_t>(t_layer)];
}

/// Marks the thread as inside `layer` for the scope's lifetime.
class InLayer {
 public:
  explicit InLayer(Layer layer) noexcept : prev_(t_layer) {
    t_layer = static_cast<int>(layer);
  }
  ~InLayer() { t_layer = prev_; }
  InLayer(const InLayer&) = delete;
  InLayer& operator=(const InLayer&) = delete;

 private:
  std::sig_atomic_t prev_;
};

std::atomic<bool> g_sampling{false};

void install_handler() {
  static const bool installed = [] {
    struct sigaction action {};
    action.sa_handler = on_tick;
    action.sa_flags = SA_RESTART;
    sigemptyset(&action.sa_mask);
    if (sigaction(SIGPROF, &action, nullptr) != 0) {
      throw std::runtime_error("crmd_bench: cannot install SIGPROF handler");
    }
    return true;
  }();
  (void)installed;
}

/// A wall-clock timer that sends SIGPROF to the thread that armed it.
class ThreadTimer {
 public:
  ThreadTimer() {
    install_handler();
    sigevent event{};
    event.sigev_notify = SIGEV_THREAD_ID;
    event.sigev_signo = SIGPROF;
    event.sigev_notify_thread_id = gettid();
    if (timer_create(CLOCK_MONOTONIC, &event, &id_) != 0) {
      throw std::runtime_error("crmd_bench: cannot create sampling timer");
    }
    itimerspec spec{};
    spec.it_interval.tv_nsec = kTickUs * 1000;
    spec.it_value.tv_nsec = kTickUs * 1000;
    timer_settime(id_, 0, &spec, nullptr);
  }
  ~ThreadTimer() { timer_delete(id_); }
  ThreadTimer(const ThreadTimer&) = delete;
  ThreadTimer& operator=(const ThreadTimer&) = delete;

 private:
  timer_t id_{};
};

/// Stats of threads that have exited, folded in by their thread-local
/// destructor.
struct Exited {
  std::mutex mu;
  LayerStats stats;  // guarded by mu
};

Exited& exited() {
  static Exited e;
  return e;
}

/// Moves the calling thread's ticks into `stats`.
void fold_ticks(LayerStats& stats) noexcept {
  for (std::size_t i = 0; i < kLayers; ++i) {
    stats.ticks[i] += std::exchange(t_ticks[i], 0);
  }
}

struct ThreadStats {
  LayerStats stats;
  std::unique_ptr<ThreadTimer> timer;

  ThreadStats() {
    if (g_sampling.load()) {
      timer = std::make_unique<ThreadTimer>();
    }
  }
  ~ThreadStats() {
    timer.reset();
    fold_ticks(stats);
    Exited& e = exited();
    const std::lock_guard<std::mutex> lock(e.mu);
    e.stats.merge(stats);
  }
  ThreadStats(const ThreadStats&) = delete;
  ThreadStats& operator=(const ThreadStats&) = delete;
};

thread_local ThreadStats t_stats;

/// Forwards every callback to the wrapped protocol, counting each one and
/// marking the thread as inside the family's layer. The wrapper lives
/// exactly as long as the protocol it wraps and is only ever called on the
/// thread that built it, so it refers straight to that thread's stats.
class TracedProtocol final : public Protocol {
 public:
  TracedProtocol(Protocol* inner, bool arena_owned, Family family)
      : inner_(inner),
        arena_owned_(arena_owned),
        layer_(static_cast<Layer>(static_cast<int>(family) + 1)),
        calls_(local_stats().family[static_cast<std::size_t>(family)]) {}
  ~TracedProtocol() override {
    if (arena_owned_) {
      inner_->~Protocol();
    } else {
      delete inner_;
    }
  }
  TracedProtocol(const TracedProtocol&) = delete;
  TracedProtocol& operator=(const TracedProtocol&) = delete;

  void on_activate(const JobInfo& info) override {
    ++calls_.on_activate;
    const InLayer in(layer_);
    inner_->on_activate(info);
  }
  SlotAction on_slot(const SlotView& view) override {
    ++calls_.on_slot;
    const InLayer in(layer_);
    return inner_->on_slot(view);
  }
  void on_feedback(const SlotView& view, const SlotFeedback& fb) override {
    ++calls_.on_feedback;
    const InLayer in(layer_);
    inner_->on_feedback(view, fb);
  }
  bool done() const override {
    ++calls_.done;
    const InLayer in(layer_);
    return inner_->done();
  }
  DormantSpan dormant_span(const SlotView& view) const override {
    ++calls_.dormant_span;
    const InLayer in(layer_);
    return inner_->dormant_span(view);
  }

 private:
  Protocol* inner_;
  bool arena_owned_;
  Layer layer_;
  FamilyCalls& calls_;
};

class TracedJammer final : public crmd::sim::Jammer {
 public:
  explicit TracedJammer(std::unique_ptr<crmd::sim::Jammer> inner)
      : inner_(std::move(inner)) {}
  bool wants_jam(Slot slot, crmd::sim::SlotOutcome outcome,
                 const crmd::sim::Message* message) override {
    ++local_stats().jammer_calls;
    const InLayer in(Layer::kJammer);
    return inner_->wants_jam(slot, outcome, message);
  }
  double p_jam() const noexcept override { return inner_->p_jam(); }

 private:
  std::unique_ptr<crmd::sim::Jammer> inner_;
};

class TracedArrivals final : public crmd::sim::ArrivalProcess {
 public:
  explicit TracedArrivals(std::unique_ptr<crmd::sim::ArrivalProcess> inner)
      : inner_(std::move(inner)) {}
  std::optional<crmd::workload::JobSpec> next(crmd::util::Rng& rng) override {
    ++local_stats().arrivals_calls;
    const InLayer in(Layer::kArrivals);
    return inner_->next(rng);
  }

 private:
  std::unique_ptr<crmd::sim::ArrivalProcess> inner_;
};

}  // namespace

const char* family_name(Family family) noexcept {
  switch (family) {
    case Family::kUniform:
      return "core.uniform";
    case Family::kPunctual:
      return "core.punctual";
    case Family::kAligned:
      return "core.aligned";
    case Family::kAloha:
      return "baselines.aloha";
  }
  return "?";
}

void FamilyCalls::merge(const FamilyCalls& other) noexcept {
  on_activate += other.on_activate;
  on_slot += other.on_slot;
  on_feedback += other.on_feedback;
  done += other.done;
  dormant_span += other.dormant_span;
}

void LayerStats::merge(const LayerStats& other) noexcept {
  for (std::size_t i = 0; i < kFamilies; ++i) {
    family[i].merge(other.family[i]);
  }
  jammer_calls += other.jammer_calls;
  arrivals_calls += other.arrivals_calls;
  generated_jobs += other.generated_jobs;
  generator_ms += other.generator_ms;
  for (std::size_t i = 0; i < kLayers; ++i) {
    ticks[i] += other.ticks[i];
  }
}

double LayerStats::busy_ms(Layer layer) const noexcept {
  return static_cast<double>(ticks[static_cast<std::size_t>(layer)]) *
         static_cast<double>(kTickUs) / 1000.0;
}

LayerStats& local_stats() noexcept { return t_stats.stats; }

LayerStats take_stats() {
  LayerStats out = std::exchange(t_stats.stats, LayerStats{});
  fold_ticks(out);
  Exited& e = exited();
  const std::lock_guard<std::mutex> lock(e.mu);
  out.merge(std::exchange(e.stats, LayerStats{}));
  return out;
}

double clock_overhead_ns() {
  static const double overhead = [] {
    std::vector<double> pairs(2001);
    for (double& d : pairs) {
      const auto a = Clock::now();
      const auto b = Clock::now();
      d = std::chrono::duration<double, std::nano>(b - a).count();
    }
    std::nth_element(pairs.begin(), pairs.begin() + 1000, pairs.end());
    return pairs[1000];
  }();
  return overhead;
}

Sampling::Sampling() {
  g_sampling.store(true);
  t_stats.timer = std::make_unique<ThreadTimer>();
}

Sampling::~Sampling() {
  t_stats.timer.reset();
  g_sampling.store(false);
}

crmd::sim::ProtocolFactory traced_factory(crmd::sim::ProtocolFactory inner,
                                          Family family) {
  return crmd::sim::ProtocolFactory(
      [inner, family](const JobInfo& info, crmd::util::Rng rng)
          -> std::unique_ptr<Protocol> {
        return std::make_unique<TracedProtocol>(
            inner(info, std::move(rng)).release(), false, family);
      },
      [inner, family](const JobInfo& info, crmd::util::Rng rng,
                      crmd::util::MonotonicArena& arena) -> Protocol* {
        Protocol* p = inner.emplace(info, std::move(rng), arena);
        return arena.create<TracedProtocol>(p, true, family);
      });
}

std::unique_ptr<crmd::sim::Jammer> traced_jammer(
    std::unique_ptr<crmd::sim::Jammer> inner) {
  return std::make_unique<TracedJammer>(std::move(inner));
}

std::unique_ptr<crmd::sim::ArrivalProcess> traced_arrivals(
    std::unique_ptr<crmd::sim::ArrivalProcess> inner) {
  return std::make_unique<TracedArrivals>(std::move(inner));
}

}  // namespace crmd_bench
