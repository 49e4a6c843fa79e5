#pragma once

// Per-layer tracing for the traced benchmark run. Every figure is taken from
// the benchmark's own side of a layer boundary: wrappers around the
// protocol factory, the jammer and the arrival process count each call into
// those layers and mark the thread as inside that layer while the call
// runs. A per-thread sampling timer (Linux, every kTickUs of wall time)
// charges one tick to whichever layer the thread is in, so a layer's busy
// time is its ticks times the period. Sampling instead of reading a clock
// around each call matters here: UNIFORM's callbacks take a few ns and
// overlap one another's cache misses, which a per-call clock overstates.
// Nothing inside the engine is instrumented, and untraced runs never
// construct a wrapper or arm a timer.

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>

#include "sim/arrivals.hpp"
#include "sim/jammer.hpp"
#include "sim/protocol.hpp"

namespace crmd_bench {

using Clock = std::chrono::steady_clock;

/// What a thread is doing, as far as the wrappers can tell. kOther covers
/// everything outside a wrapped call: the engine itself, the replication
/// runner and the benchmark.
enum class Layer : int {
  kOther,
  kUniform,
  kPunctual,
  kAligned,
  kAloha,
  kJammer,
  kArrivals,
};
inline constexpr std::size_t kLayers = 7;

/// Protocol families the workloads run.
enum class Family { kUniform, kPunctual, kAligned, kAloha };
inline constexpr std::size_t kFamilies = 4;
/// The family's layer name, e.g. "core.uniform".
[[nodiscard]] const char* family_name(Family family) noexcept;

/// Sampling period of the per-thread layer timer.
inline constexpr long kTickUs = 50;

/// Callback counts of one protocol family.
struct FamilyCalls {
  std::int64_t on_activate = 0;
  std::int64_t on_slot = 0;
  std::int64_t on_feedback = 0;
  std::int64_t done = 0;
  std::int64_t dormant_span = 0;

  void merge(const FamilyCalls& other) noexcept;
};

/// Everything the wrappers record. Each thread accumulates its own copy
/// (replication workers run protocols concurrently), so the hot path takes
/// no lock and shares no cache line.
struct LayerStats {
  std::array<FamilyCalls, kFamilies> family;
  std::int64_t jammer_calls = 0;
  std::int64_t arrivals_calls = 0;
  std::int64_t generated_jobs = 0;
  /// Generators run outside the engine for ms at a time, so they are timed
  /// with a clock instead of sampled.
  double generator_ms = 0.0;
  /// Sampling ticks charged to each Layer.
  std::array<std::int64_t, kLayers> ticks{};

  void merge(const LayerStats& other) noexcept;
  /// Busy time of `layer` estimated from its ticks.
  [[nodiscard]] double busy_ms(Layer layer) const noexcept;
};

/// The calling thread's accumulator. A thread that first touches it while a
/// Sampling scope is open elsewhere starts its own timer (replication
/// workers of a traced sweep).
[[nodiscard]] LayerStats& local_stats() noexcept;

/// Returns everything recorded so far — by the calling thread and by every
/// thread that has exited — and starts over from zero. Threads still
/// running keep their counts until they exit.
[[nodiscard]] LayerStats take_stats();

/// Median cost of one steady_clock reading pair, subtracted from timed
/// step() samples. Measured once, on first use.
[[nodiscard]] double clock_overhead_ns();

/// Samples the calling thread, and any thread that starts recording while
/// it is open, for its lifetime. One at a time, on the thread that drives
/// the traced run.
class Sampling {
 public:
  Sampling();
  ~Sampling();
  Sampling(const Sampling&) = delete;
  Sampling& operator=(const Sampling&) = delete;
};

/// Wraps `inner` so every protocol it builds reports to the building
/// thread's stats under `family`. Both construction paths are kept: the
/// arena path places the inner protocol and its wrapper in the
/// simulation's arena, as the unwrapped factory would.
[[nodiscard]] crmd::sim::ProtocolFactory traced_factory(
    crmd::sim::ProtocolFactory inner, Family family);

/// Wraps a jammer: counts and samples wants_jam calls.
[[nodiscard]] std::unique_ptr<crmd::sim::Jammer> traced_jammer(
    std::unique_ptr<crmd::sim::Jammer> inner);

/// Wraps an arrival process: counts and samples next() calls.
[[nodiscard]] std::unique_ptr<crmd::sim::ArrivalProcess> traced_arrivals(
    std::unique_ptr<crmd::sim::ArrivalProcess> inner);

}  // namespace crmd_bench
