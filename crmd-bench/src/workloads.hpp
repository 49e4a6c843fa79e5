#pragma once

// The four benchmark workloads. Each is defined by how one run of it is
// prepared (inputs, factories, Simulation objects: what setup_s times) and
// executed (what wall_s times). BENCHMARK.json and README.md record why each
// workload was chosen.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "checks.hpp"
#include "sim/metrics.hpp"
#include "speed.hpp"

namespace crmd_bench {

/// What one run of a workload produced.
struct Outcome {
  /// Channel metrics summed over the run's simulations.
  crmd::sim::SimMetrics metrics;
  /// Sub-channels per time slot (slots_simulated counts channel-slots).
  int channels = 1;
  std::int64_t jobs = 0;
  std::int64_t delivered = 0;
  std::uint64_t fingerprint = 0;
  Violations violations;
};

/// Engine-side figures of traced runs, filled on the driving thread. The
/// per-call layers (protocols, jammer, arrivals, generators) report through
/// layers.hpp instead, from whichever thread runs them.
struct EngineTrace {
  std::int64_t step_calls = 0;
  /// Sampled step() durations, clock cost subtracted.
  std::vector<double> step_ns;
  /// Total time inside step() loops.
  double step_ms = 0.0;
  double ctor_ms = 0.0;
  /// analysis::run_replications phases (obs::RunProfiler), summed over
  /// workers, and the sweeps' wall time.
  double generate_ms = 0.0;
  double simulation_ms = 0.0;
  double aggregate_ms = 0.0;
  double sweep_wall_ms = 0.0;
  int workers = 0;
};

/// Options of one benchmark invocation that shape a run.
struct Context {
  std::uint64_t seed = 1;
  /// Self-test size: every workload shrunk to a fraction of a second.
  bool tiny = false;
  /// Self-test only: damage each result before it is checked.
  bool corrupt = false;
  /// Non-null in traced runs: wrap every layer and record into it.
  EngineTrace* trace = nullptr;
  /// Non-null in timed untraced runs: sample the host's speed between
  /// chunks of the execution (speed.hpp).
  SpeedProbe* probe = nullptr;
};

/// Executes a prepared run.
using Run = std::function<Outcome()>;

struct Workload {
  const char* name;
  /// Builds one run's inputs, factories and Simulation objects and returns
  /// the run itself.
  std::function<Run(const Context&)> prepare;
  /// Runs a shortened copy under FastForward::kValidate, which re-simulates
  /// every fast-forwarded slot and throws on a broken dormancy promise, and
  /// under kOn; the two fingerprints must agree. Null when the workload
  /// does not fast-forward.
  std::function<Violations(const Context&)> validate;
};

[[nodiscard]] const std::vector<Workload>& workloads();

}  // namespace crmd_bench
