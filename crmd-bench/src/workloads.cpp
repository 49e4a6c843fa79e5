#include "workloads.hpp"

#include <memory>
#include <utility>

#include "analysis/runner.hpp"
#include "baselines/aloha.hpp"
#include "core/aligned/protocol.hpp"
#include "core/punctual/protocol.hpp"
#include "core/uniform.hpp"
#include "layers.hpp"
#include "obs/profiler.hpp"
#include "sim/arrivals.hpp"
#include "sim/jammer.hpp"
#include "sim/simulator.hpp"
#include "workload/generators.hpp"

namespace crmd_bench {
namespace {

namespace analysis = crmd::analysis;
namespace sim = crmd::sim;
namespace workload = crmd::workload;
using crmd::Slot;

/// One step() in this many is timed in traced runs; the step loop as a
/// whole is always timed.
constexpr std::int64_t kStepSamplePeriod = 16;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Calls a workload generator, timing it into the workload layer when
/// traced. Safe on replication workers: the stats are thread-local.
template <typename Gen>
workload::Instance generate(const Context& ctx, Gen&& gen) {
  if (ctx.trace == nullptr) {
    return gen();
  }
  const auto start = Clock::now();
  workload::Instance instance = gen();
  LayerStats& stats = local_stats();
  stats.generator_ms += ms_since(start);
  stats.generated_jobs += static_cast<std::int64_t>(instance.size());
  return instance;
}

sim::ProtocolFactory factory_for(const Context& ctx,
                                 sim::ProtocolFactory factory,
                                 Family family) {
  return ctx.trace != nullptr ? traced_factory(std::move(factory), family)
                              : factory;
}

template <typename... Args>
std::shared_ptr<sim::Simulation> construct(const Context& ctx,
                                           Args&&... args) {
  const auto start = Clock::now();
  auto simulation =
      std::make_shared<sim::Simulation>(std::forward<Args>(args)...);
  if (ctx.trace != nullptr) {
    ctx.trace->ctor_ms += ms_since(start);
  }
  return simulation;
}

/// step() calls between two looks at the clock in probed runs.
constexpr std::int64_t kProbeCheckPeriod = 16;

/// Steps `simulation` to the end; traced runs count every step and time a
/// sample of them, probed runs sample the host's speed about every
/// SpeedProbe::kPeriodSeconds and at both ends.
void drive(sim::Simulation& simulation, const Context& ctx) {
  if (ctx.probe != nullptr) {
    SpeedProbe& probe = *ctx.probe;
    probe.sample();
    auto chunk = Clock::now();
    for (std::int64_t i = 1; simulation.step(); ++i) {
      if (i % kProbeCheckPeriod == 0 &&
          ms_since(chunk) >= SpeedProbe::kPeriodSeconds * 1e3) {
        probe.sample();
        chunk = Clock::now();
      }
    }
    probe.sample();
    return;
  }
  EngineTrace* trace = ctx.trace;
  if (trace == nullptr) {
    while (simulation.step()) {
    }
    return;
  }
  const double overhead = clock_overhead_ns();
  const auto start = Clock::now();
  bool more = true;
  while (more) {
    if (trace->step_calls++ % kStepSamplePeriod != 0) {
      more = simulation.step();
      continue;
    }
    const auto t0 = Clock::now();
    more = simulation.step();
    trace->step_ns.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() -
        overhead);
  }
  trace->step_ms += ms_since(start);
}

Outcome batch_outcome(const Context& ctx, sim::SimResult result,
                      std::size_t jobs, int channels) {
  if (ctx.corrupt) {
    for (sim::JobResult& job : result.jobs) {
      if (job.success) {
        job.success_slot = job.deadline;
        break;
      }
    }
  }
  Outcome out;
  out.metrics = result.metrics;
  out.channels = channels;
  out.jobs = static_cast<std::int64_t>(jobs);
  out.delivered = result.successes();
  out.violations = check_batch(result, jobs);
  Fingerprint fp;
  fp.add(result);
  out.fingerprint = fp.value();
  return out;
}

/// Runs `run` under kOn and kValidate and reports broken promises (kValidate
/// throws) and any difference between the two results.
template <typename RunFn, typename CheckFn>
Violations validate_fast_forward(RunFn&& run, CheckFn&& check) {
  Violations out;
  try {
    const sim::SimResult on = run(sim::FastForward::kOn);
    const sim::SimResult validated = run(sim::FastForward::kValidate);
    Fingerprint a;
    a.add(on);
    Fingerprint b;
    b.add(validated);
    if (a.value() != b.value()) {
      out.push_back("fast_forward kValidate result == kOn result");
    }
    for (std::string& v : check(validated)) {
      out.push_back("kValidate run: " + std::move(v));
    }
  } catch (const std::exception& e) {
    out.push_back(std::string("kValidate run: dormancy promises hold (") +
                  e.what() + ")");
  }
  return out;
}

// --- dense-sleepy ----------------------------------------------------------

crmd::core::Params uniform_params() {
  crmd::core::Params params;
  params.lambda = 2;
  return params;
}

sim::SimConfig dense_config(const Context& ctx, sim::FastForward ff) {
  sim::SimConfig config;
  config.seed = ctx.seed;
  config.fast_forward = ff;
  return config;
}

Run prepare_dense(const Context& ctx) {
  const std::int64_t jobs = ctx.tiny ? 256 : 8192;
  const Slot window = ctx.tiny ? 1024 : 32768;
  workload::Instance instance =
      generate(ctx, [&] { return workload::gen_batch(jobs, window); });
  const sim::ProtocolFactory factory = factory_for(
      ctx, crmd::core::make_uniform_factory(uniform_params()),
      Family::kUniform);
  auto simulation = construct(ctx, std::move(instance), factory,
                              dense_config(ctx, sim::FastForward::kOn));
  return [ctx, simulation, jobs] {
    drive(*simulation, ctx);
    return batch_outcome(ctx, simulation->finish(),
                         static_cast<std::size_t>(jobs), 1);
  };
}

Violations validate_dense(const Context& ctx) {
  const std::int64_t jobs = ctx.tiny ? 128 : 1024;
  const Slot window = 4 * jobs;
  return validate_fast_forward(
      [&](sim::FastForward ff) {
        return sim::run(workload::gen_batch(jobs, window),
                        crmd::core::make_uniform_factory(uniform_params()),
                        dense_config(ctx, ff));
      },
      [&](const sim::SimResult& r) {
        return check_batch(r, static_cast<std::size_t>(jobs));
      });
}

// --- paper-sweep -----------------------------------------------------------

/// One run_replications sweep of the paper's headline experiments.
struct Sweep {
  const char* label;
  analysis::InstanceGen gen;
  sim::ProtocolFactory factory;
  analysis::RunOptions options;
  int reps = 0;
};

/// E12: PUNCTUAL on γ-slack general instances (γ = 1/32).
Sweep e12_sweep(const Context& ctx) {
  crmd::core::Params params;
  params.lambda = 4;
  params.tau = 8;
  params.min_class = 8;
  Sweep s{"E12", nullptr,
          factory_for(ctx, crmd::core::punctual::make_punctual_factory(params),
                      Family::kPunctual),
          {}, ctx.tiny ? 2 : 4};
  const bool tiny = ctx.tiny;
  s.gen = [ctx, tiny](crmd::util::Rng& rng) {
    workload::GeneralConfig config;
    config.min_window = tiny ? Slot{1} << 8 : Slot{1} << 10;
    config.max_window = tiny ? Slot{1} << 10 : Slot{1} << 14;
    config.horizon = tiny ? Slot{1} << 12 : Slot{1} << 16;
    config.gamma = 1.0 / 32;
    config.pow2_windows = true;
    return generate(ctx, [&] { return workload::gen_general(config, rng); });
  };
  return s;
}

/// E8: ALIGNED on aligned instances under a reactive jammer (p_jam = 0.25).
Sweep e8_sweep(const Context& ctx) {
  crmd::core::Params params;
  params.lambda = 2;
  params.tau = 8;
  params.min_class = ctx.tiny ? 8 : 10;
  Sweep s{"E8", nullptr,
          factory_for(ctx, crmd::core::aligned::make_aligned_factory(params),
                      Family::kAligned),
          {}, ctx.tiny ? 2 : 4};
  const bool tiny = ctx.tiny;
  s.gen = [ctx, tiny](crmd::util::Rng& rng) {
    workload::AlignedConfig config;
    config.min_class = tiny ? 8 : 10;
    config.max_class = tiny ? 9 : 13;
    config.gamma = 1.0 / 8;
    return generate(ctx, [&] { return workload::gen_aligned(config, rng); });
  };
  const bool traced = ctx.trace != nullptr;
  s.options.jammer_gen = [traced](crmd::util::Rng) {
    auto jammer = sim::make_reactive_jammer(0.25);
    return traced ? traced_jammer(std::move(jammer)) : std::move(jammer);
  };
  return s;
}

Run prepare_paper(const Context& ctx) {
  std::vector<Sweep> sweeps{e12_sweep(ctx), e8_sweep(ctx)};
  for (Sweep& s : sweeps) {
    s.options.threads = 2;
    s.options.fast_forward = sim::FastForward::kOn;
  }
  if (ctx.trace == nullptr) {
    // run_replications generates and constructs each replication inside
    // the sweep. Set-up time is that of one replication of each sweep,
    // built here from the benchmark's own seed and discarded.
    crmd::util::Rng rng(ctx.seed);
    for (const Sweep& s : sweeps) {
      sim::SimConfig config;
      config.seed = ctx.seed;
      config.fast_forward = s.options.fast_forward;
      const sim::Simulation probe(
          s.gen(rng), s.factory, config,
          s.options.jammer_gen ? s.options.jammer_gen(rng) : nullptr);
    }
  }
  return [ctx, sweeps] {
    Outcome out;
    Fingerprint fp;
    for (const Sweep& s : sweeps) {
      // The sweep runs on the replication workers; the host's speed is
      // sampled around each sweep instead of during it.
      if (ctx.probe != nullptr) {
        ctx.probe->sample();
      }
      if (ctx.trace != nullptr) {
        crmd::obs::global_profiler().reset();
      }
      const auto start = Clock::now();
      analysis::ReplicationReport report = analysis::run_replications(
          s.gen, s.factory, s.reps, ctx.seed, s.options);
      if (ctx.trace != nullptr) {
        EngineTrace& t = *ctx.trace;
        t.sweep_wall_ms += ms_since(start);
        t.workers = s.options.threads;
        for (const auto& phase : crmd::obs::global_profiler().phases()) {
          if (phase.name == "generate") {
            t.generate_ms += phase.ms;
          } else if (phase.name == "simulation") {
            t.simulation_ms += phase.ms;
          } else if (phase.name == "aggregate") {
            t.aggregate_ms += phase.ms;
          }
        }
      }
      if (ctx.corrupt) {
        ++report.channel.data_successes;
      }
      for (std::string& v : check_report(report)) {
        out.violations.push_back(std::string(s.label) + ": " + std::move(v));
      }
      fp.add(report);
      out.metrics.merge(report.channel);
      out.jobs += static_cast<std::int64_t>(report.outcomes.jobs());
      out.delivered +=
          static_cast<std::int64_t>(report.outcomes.overall().successes());
    }
    if (ctx.probe != nullptr) {
      ctx.probe->sample();
    }
    out.fingerprint = fp.value();
    return out;
  };
}

// --- stream-longrun --------------------------------------------------------

constexpr Slot kStreamWindow = 4096;

std::unique_ptr<sim::ArrivalProcess> stream_arrivals(const Context& ctx) {
  auto arrivals =
      std::make_unique<sim::MmppArrivals>(2e-4, 1e-2, kStreamWindow, 16384);
  if (ctx.trace != nullptr) {
    return traced_arrivals(std::move(arrivals));
  }
  return arrivals;
}

sim::SimConfig stream_config(const Context& ctx, Slot horizon,
                             sim::FastForward ff) {
  sim::SimConfig config;
  config.seed = ctx.seed;
  config.horizon = horizon;
  config.fast_forward = ff;
  config.keep_job_results = false;
  return config;
}

Outcome stream_outcome(const Context& ctx, sim::SimResult result) {
  if (ctx.corrupt) {
    ++result.metrics.data_successes;
  }
  Outcome out;
  out.metrics = result.metrics;
  out.jobs = result.stream.jobs;
  out.delivered = result.stream.delivered;
  out.violations = check_stream(result, kStreamWindow);
  Fingerprint fp;
  fp.add(result);
  out.fingerprint = fp.value();
  return out;
}

Run prepare_stream(const Context& ctx) {
  const Slot horizon = ctx.tiny ? Slot{1} << 16 : Slot{1} << 28;
  const sim::ProtocolFactory factory = factory_for(
      ctx, crmd::core::make_uniform_factory(uniform_params()),
      Family::kUniform);
  auto simulation = construct(
      ctx, stream_arrivals(ctx), factory,
      stream_config(ctx, horizon, sim::FastForward::kOn));
  return [ctx, simulation] {
    drive(*simulation, ctx);
    return stream_outcome(ctx, simulation->finish());
  };
}

Violations validate_stream(const Context& ctx) {
  const Slot horizon = ctx.tiny ? Slot{1} << 15 : Slot{1} << 18;
  const Context plain{ctx.seed, ctx.tiny, false, nullptr};
  return validate_fast_forward(
      [&](sim::FastForward ff) {
        return sim::run_stream(
            stream_arrivals(plain),
            crmd::core::make_uniform_factory(uniform_params()),
            stream_config(ctx, horizon, ff));
      },
      [&](const sim::SimResult& r) { return check_stream(r, kStreamWindow); });
}

// --- contended-multichannel ------------------------------------------------

Run prepare_contended(const Context& ctx) {
  const std::int64_t jobs = ctx.tiny ? 512 : 8192;
  workload::Instance instance =
      generate(ctx, [&] { return workload::gen_batch(jobs, jobs); });
  const sim::ProtocolFactory factory = factory_for(
      ctx, crmd::baselines::make_aloha_window_factory(8.0), Family::kAloha);
  sim::SimConfig config;
  config.seed = ctx.seed;
  config.feedback = sim::FeedbackModel::binary_ack();
  config.multichannel.channels = 4;
  config.multichannel.migrate = true;
  config.faults.feedback_loss_rate = 0.01;
  config.faults.crash_rate = 5e-4;
  config.faults.stall_min = 4;
  config.faults.stall_max = 16;
  auto simulation = construct(ctx, std::move(instance), factory, config);
  return [ctx, simulation, jobs] {
    drive(*simulation, ctx);
    return batch_outcome(ctx, simulation->finish(),
                         static_cast<std::size_t>(jobs), 4);
  };
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all{
      {"dense-sleepy", prepare_dense, validate_dense},
      {"paper-sweep", prepare_paper, nullptr},
      {"stream-longrun", prepare_stream, validate_stream},
      {"contended-multichannel", prepare_contended, nullptr},
  };
  return all;
}

}  // namespace crmd_bench
