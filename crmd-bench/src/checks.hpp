#pragma once

// Correctness checks and result fingerprints for every benchmark run. A
// check returns the invariants a result violates, as one line each; an
// empty list means the run is correct.

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/runner.hpp"
#include "sim/metrics.hpp"

namespace crmd_bench {

using Violations = std::vector<std::string>;

/// A batch run of `jobs` jobs: every job is reported once, either failed or
/// delivered inside [release, deadline), and data_successes counts exactly
/// the delivered jobs. Plus the channel identities: silent + success +
/// noise slots equal slots_simulated, and awake = listening + transmitting
/// job-slots.
[[nodiscard]] Violations check_batch(const crmd::sim::SimResult& result,
                                     std::size_t jobs);

/// A streaming run that keeps no per-job results: every delivery lies inside
/// its job's window (latency in [1, window]) and data_successes counts
/// exactly the delivered jobs. Plus the channel identities.
[[nodiscard]] Violations check_stream(const crmd::sim::SimResult& result,
                                      crmd::Slot window);

/// A replication sweep of always-listening families (PUNCTUAL, ALIGNED):
/// every generated job is aggregated, every delivery lies inside its
/// window, and data_successes counts the delivered jobs. Plus the channel
/// identities, and awake = live − dark job-slots.
[[nodiscard]] Violations check_report(
    const crmd::analysis::ReplicationReport& report);

/// FNV-1a over a run's observable results, so two runs can be compared for
/// bit-identical outcomes.
class Fingerprint {
 public:
  void add(std::uint64_t v) noexcept;
  void add(double v) noexcept;
  void add(const crmd::sim::SimMetrics& m) noexcept;
  void add(const crmd::sim::SimResult& result) noexcept;
  void add(const crmd::analysis::ReplicationReport& report) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  void add(const crmd::util::RunningStats& s) noexcept;
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace crmd_bench
