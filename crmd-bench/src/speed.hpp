#pragma once

// Host-speed probe for the end-to-end timings.
//
// On a shared host the speed of the benchmark's vCPU drifts by up to about
// 1.8x, for seconds to minutes at a time, with what other tenants run. Raw
// host time then spreads more between runs of the same code than the
// bounds in BENCHMARK.json allow. The probe is a fixed streaming pass over
// a buffer larger than L2, run between chunks of a workload's execution;
// its time tracks the host's momentary speed. Execution and set-up times
// are scaled by kReferenceSeconds / median probe time, which reports them
// at the reference host's typical speed. The probe's own time is not part
// of them. STEADINESS.md has the figures behind this.

#include <vector>

namespace crmd_bench {

class SpeedProbe {
 public:
  /// Typical probe time on the reference host.
  static constexpr double kReferenceSeconds = 0.8e-3;
  /// Execution time between two probes.
  static constexpr double kPeriodSeconds = 0.1;

  SpeedProbe();

  /// Times one probe pass and keeps the time.
  void sample();
  /// Total time spent in sample().
  [[nodiscard]] double spent_s() const noexcept;
  /// Factor that scales a time measured alongside the samples to the
  /// reference host speed; 1 without samples.
  [[nodiscard]] double scale() const;

 private:
  std::vector<double> buffer_;
  std::vector<double> samples_;
  double sink_ = 0.0;
};

}  // namespace crmd_bench
