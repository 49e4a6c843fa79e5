// Microbenchmarks (google-benchmark): raw simulator throughput, RNG, the
// feasibility checkers, tracker stepping, one ALIGNED job-slot, estimation
// updates, and trimming.
// These gate performance regressions; they reproduce no paper claim.

#include <benchmark/benchmark.h>

#include <array>
#include <memory>
#include <optional>
#include <sstream>

#include "baselines/aloha.hpp"
#include "core/aligned/estimation.hpp"
#include "core/aligned/protocol.hpp"
#include "core/aligned/tracker.hpp"
#include "core/params.hpp"
#include "core/punctual/protocol.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/feasibility.hpp"
#include "workload/generators.hpp"
#include "workload/trim.hpp"

namespace {

using namespace crmd;

void BM_RngU64(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_RngU64);

void BM_RngBernoulli(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.bernoulli(0.3));
  }
}
BENCHMARK(BM_RngBernoulli);

void BM_RngBelow(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.below(1000));
  }
}
BENCHMARK(BM_RngBelow);

// Simulator slots/second with k concurrent ALOHA jobs.
void BM_SimulatorAloha(benchmark::State& state) {
  const auto jobs = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    const auto instance = workload::gen_batch(jobs, 1 << 12, 0);
    sim::SimConfig config;
    config.seed = 7;
    sim::Simulation sim(instance, baselines::make_aloha_factory(0.01),
                        config);
    state.ResumeTiming();
    const auto result = sim.finish();
    benchmark::DoNotOptimize(result.metrics.slots_simulated);
  }
  state.SetItemsProcessed(state.iterations() * (1 << 12));
}
BENCHMARK(BM_SimulatorAloha)->Arg(8)->Arg(64)->Arg(512);

void BM_EdfFeasible(benchmark::State& state) {
  util::Rng rng(3);
  workload::GeneralConfig config;
  config.min_window = 1 << 8;
  config.max_window = 1 << 12;
  config.gamma = 1.0 / 8;
  config.horizon = 1 << 15;
  const auto instance = workload::gen_general(config, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::edf_feasible(instance, 8));
  }
  state.SetLabel(std::to_string(instance.size()) + " jobs");
}
BENCHMARK(BM_EdfFeasible);

void BM_TrackerStep(benchmark::State& state) {
  core::Params p;
  p.lambda = 2;
  p.tau = 8;
  core::aligned::Tracker tracker(p, 8, 14);
  Slot t = 0;
  for (auto _ : state) {
    tracker.begin_slot(t);
    tracker.end_slot(sim::SlotOutcome::kSilence);
    ++t;
  }
}
BENCHMARK(BM_TrackerStep);

// One ALIGNED job-slot as the engine drives it: on_slot, on_feedback and
// done() for a class-13 job (window 2^13) with min_class 10, over a fixed
// mixed outcome stream. The job restarts in a fresh window when it
// finishes or its window ends, so the estimation and broadcast stages of
// every tracked class are all in the mix.
void BM_AlignedSlot(benchmark::State& state) {
  core::Params p;
  p.lambda = 2;
  p.tau = 8;
  p.min_class = 10;
  constexpr Slot kWindow = Slot{1} << 13;
  std::array<sim::SlotOutcome, 4096> outcomes{};
  util::Rng draw(11);
  for (sim::SlotOutcome& o : outcomes) {
    const double roll = draw.next_double();
    o = roll < 0.1   ? sim::SlotOutcome::kSuccess
        : roll < 0.4 ? sim::SlotOutcome::kNoise
                     : sim::SlotOutcome::kSilence;
  }
  std::optional<core::aligned::AlignedProtocol> job;
  Slot release = 0;
  Slot t = 0;
  const auto restart = [&] {
    job.emplace(p, util::Rng(static_cast<std::uint64_t>(release) + 1));
    sim::JobInfo info;
    info.id = 0;
    info.release = release;
    info.deadline = release + kWindow;
    job->on_activate(info);
    t = release;
  };
  restart();
  std::size_t k = 0;
  for (auto _ : state) {
    const sim::SlotView view{t - release, t};
    const sim::SlotAction action = job->on_slot(view);
    benchmark::DoNotOptimize(action.declared_prob);
    sim::SlotFeedback fb;
    fb.outcome = outcomes[k++ & (outcomes.size() - 1)];
    if (fb.outcome == sim::SlotOutcome::kSuccess) {
      fb.message = sim::make_control(1);
    }
    job->on_feedback(view, fb);
    ++t;
    if (job->done() || t == release + kWindow) {
      state.PauseTiming();
      release += kWindow;
      restart();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AlignedSlot);

void BM_EstimationRecord(benchmark::State& state) {
  core::Params p;
  p.lambda = 4;
  for (auto _ : state) {
    core::aligned::EstimationState est(p, 16);
    while (!est.complete()) {
      est.record(sim::SlotOutcome::kSilence);
    }
    benchmark::DoNotOptimize(est.estimate());
  }
  state.SetItemsProcessed(state.iterations() * p.estimation_steps(16));
}
BENCHMARK(BM_EstimationRecord);

void BM_Trimmed(benchmark::State& state) {
  util::Rng rng(5);
  for (auto _ : state) {
    const Slot r = rng.range(0, 1 << 30);
    const Slot w = rng.range(1, 1 << 20);
    benchmark::DoNotOptimize(workload::trimmed(r, r + w));
  }
}
BENCHMARK(BM_Trimmed);

// Tracing overhead: the same PUNCTUAL simulation with tracing off
// (null tracer — the CRMD_TRACE pointer test only), ring-only (tracer with
// no sinks; events are pushed and bulk-discarded), and a full JSONL sink
// (every event formatted and written to an in-memory stream). Comparing
// items/sec across the three shows what observability costs at each tier.
enum class TraceMode { kOff, kRingOnly, kJsonl };

void run_traced_sim(benchmark::State& state, TraceMode mode) {
  workload::GeneralConfig wconfig;
  wconfig.min_window = 1 << 9;
  wconfig.max_window = 1 << 11;
  wconfig.gamma = 1.0 / 32;
  wconfig.horizon = 1 << 13;
  core::Params params;
  params.min_class = 8;
  const auto factory = core::punctual::make_punctual_factory(params);

  std::int64_t slots = 0;
  for (auto _ : state) {
    state.PauseTiming();
    util::Rng rng(11);
    const auto instance = workload::gen_general(wconfig, rng);
    sim::SimConfig config;
    config.seed = 11;
    std::unique_ptr<obs::Tracer> tracer;
    std::ostringstream jsonl;
    if (mode != TraceMode::kOff) {
      tracer = std::make_unique<obs::Tracer>();
      if (mode == TraceMode::kJsonl) {
        tracer->add_sink(std::make_shared<obs::JsonlSink>(jsonl));
      }
      config.tracer = tracer.get();
    }
    state.ResumeTiming();
    const auto result = sim::run(instance, factory, config);
    if (tracer) {
      tracer->flush();
    }
    slots += result.metrics.slots_simulated;
    benchmark::DoNotOptimize(result.metrics.slots_simulated);
  }
  state.SetItemsProcessed(slots);
}

void BM_TracingOff(benchmark::State& state) {
  run_traced_sim(state, TraceMode::kOff);
}
BENCHMARK(BM_TracingOff);

void BM_TracingRingOnly(benchmark::State& state) {
  run_traced_sim(state, TraceMode::kRingOnly);
}
BENCHMARK(BM_TracingRingOnly);

void BM_TracingJsonl(benchmark::State& state) {
  run_traced_sim(state, TraceMode::kJsonl);
}
BENCHMARK(BM_TracingJsonl);

void BM_GenAligned(benchmark::State& state) {
  workload::AlignedConfig config;
  config.min_class = 9;
  config.max_class = 13;
  config.gamma = 1.0 / 16;
  config.horizon = 1 << 15;
  util::Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::gen_aligned(config, rng));
  }
}
BENCHMARK(BM_GenAligned);

}  // namespace

BENCHMARK_MAIN();
