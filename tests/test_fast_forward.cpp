// Event-driven fast-forward correctness (DESIGN.md §6j). The contract under
// test: FastForward::kOn is bit-identical to kValidate (which re-simulates
// every parked job-slot in stripped form and throws std::logic_error on any
// broken dormancy promise), kOn preserves every job outcome and integer
// metric of the slot-by-slot kOff engine, a kOn run makes O(awake)
// protocol calls, protocols without a promise and runs with per-slot
// randomness degrade to exact kOff behavior, and the streaming
// (arrival-process) engine is bit-identical to the batch engine on the
// same job set — including under forced compaction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/beb.hpp"
#include "baselines/energy_beb.hpp"
#include "baselines/sawtooth.hpp"
#include "core/params.hpp"
#include "core/uniform.hpp"
#include "report_digest.hpp"
#include "sim/arrivals.hpp"
#include "sim/jammer.hpp"
#include "sim/simulator.hpp"
#include "workload/generators.hpp"

namespace crmd::sim {
namespace {

using tests::mix;
using tests::mix_stats;

/// Order-sensitive digest over everything a SimResult carries that the
/// fast-forward engine must reproduce bit-exactly (jobs bitwise, every
/// integer metric including fast_forward_slots, contention by bit
/// pattern). Local to this suite — the pinned golden digest in
/// tests/report_digest.hpp deliberately excludes the FF provenance fields.
std::uint64_t sim_digest(const SimResult& r) {
  std::uint64_t h = 0x46465357ULL;  // "FFSW"
  h = mix(h, r.jobs.size());
  for (const JobResult& j : r.jobs) {
    h = mix(h, j.id);
    h = mix(h, static_cast<std::uint64_t>(j.release));
    h = mix(h, static_cast<std::uint64_t>(j.deadline));
    h = mix(h, j.success ? 1 : 0);
    h = mix(h, static_cast<std::uint64_t>(j.success_slot));
    h = mix(h, static_cast<std::uint64_t>(j.transmissions));
    h = mix(h, static_cast<std::uint64_t>(j.live_slots));
    h = mix(h, static_cast<std::uint64_t>(j.dark_slots));
  }
  const SimMetrics& m = r.metrics;
  for (const std::int64_t v :
       {m.slots_simulated, m.slots_skipped, m.fast_forward_slots,
        m.live_peak, m.silent_slots, m.success_slots, m.noise_slots,
        m.jammed_slots, m.data_successes, m.capture_wins,
        m.collision_cost_slots}) {
    h = mix(h, static_cast<std::uint64_t>(v));
  }
  h = mix_stats(h, m.contention);
  // SimResult::stream is deliberately NOT hashed: the streaming engine
  // folds a rolling summary that batch runs leave zero-initialized, so the
  // streaming-vs-batch equivalence is over jobs + metrics (the stream
  // summary has its own consistency test below).
  return h;
}

/// Sparse stagger: long dormant stretches inside each live window plus
/// empty-live gaps between windows — the workload fast-forward exists for.
workload::Instance sparse_instance(std::int64_t jobs) {
  workload::Instance instance;
  for (std::int64_t i = 0; i < jobs; ++i) {
    instance.jobs.push_back(workload::JobSpec{i * 512, i * 512 + 256});
  }
  return instance;
}

struct Factory {
  const char* name;
  ProtocolFactory factory;
};

std::vector<Factory> promising_factories() {
  core::Params params;
  params.lambda = 2;
  std::vector<Factory> out;
  out.push_back({"uniform", core::make_uniform_factory(params)});
  out.push_back({"beb", baselines::make_beb_factory()});
  return out;
}

std::vector<std::pair<std::string, FeedbackModel>> feedback_models() {
  return {
      {"ternary", FeedbackModel{}},
      {"binary_ack", FeedbackModel::binary_ack()},
      {"collision_as_silence", FeedbackModel::collision_as_silence()},
      {"capture:0.5", FeedbackModel::capture(0.5)},
  };
}

SimResult run_with(const workload::Instance& instance,
                   const ProtocolFactory& factory, FastForward ff,
                   const FeedbackModel& feedback, int cost,
                   std::uint64_t seed = 99) {
  SimConfig config;
  config.seed = seed;
  config.fast_forward = ff;
  config.feedback = feedback;
  config.collision_cost = cost;
  return run(instance, factory, config);
}

// kOn must be bit-identical to kValidate — and kValidate must not throw —
// across protocols x feedback models x collision costs x workloads. This
// is the central FF correctness claim: the validating engine *simulates*
// every skipped slot and checks the dormancy promises, so digest equality
// proves the skip accounted exactly what simulation would have.
TEST(FastForward, OnMatchesValidateAcrossModels) {
  const auto workloads = std::vector<std::pair<std::string, workload::Instance>>{
      {"sparse", sparse_instance(48)},
      {"burst", workload::gen_batch(48, 4096)},
  };
  std::int64_t total_ff_slots = 0;
  for (const Factory& f : promising_factories()) {
    for (const auto& [fb_name, feedback] : feedback_models()) {
      for (const int cost : {1, 3}) {
        for (const auto& [wl_name, instance] : workloads) {
          const SimResult on =
              run_with(instance, f.factory, FastForward::kOn, feedback,
                       cost);
          SimResult validated;
          ASSERT_NO_THROW(
              validated = run_with(instance, f.factory,
                                   FastForward::kValidate, feedback, cost))
              << f.name << "/" << fb_name << "/cost=" << cost << "/"
              << wl_name;
          EXPECT_EQ(sim_digest(on), sim_digest(validated))
              << f.name << "/" << fb_name << "/cost=" << cost << "/"
              << wl_name;
          total_ff_slots += on.metrics.fast_forward_slots;
        }
      }
    }
  }
  // The sweep must actually exercise the skip path, not vacuously pass.
  EXPECT_GT(total_ff_slots, 0);
}

// kOn preserves the slot-by-slot engine's results: jobs bitwise, every
// integer metric, and the contention distribution in count/min/max (its
// mean and variance may differ from kOff only by floating-point
// reassociation of the batched Welford update).
TEST(FastForward, OnPreservesSlotBySlotResults) {
  for (const Factory& f : promising_factories()) {
    const workload::Instance instance = sparse_instance(64);
    const SimResult off = run_with(instance, f.factory, FastForward::kOff,
                                   FeedbackModel{}, 1);
    const SimResult on = run_with(instance, f.factory, FastForward::kOn,
                                  FeedbackModel{}, 1);
    EXPECT_GT(on.metrics.fast_forward_slots, 0) << f.name;
    EXPECT_EQ(off.metrics.fast_forward_slots, 0) << f.name;

    ASSERT_EQ(on.jobs.size(), off.jobs.size()) << f.name;
    for (std::size_t i = 0; i < on.jobs.size(); ++i) {
      EXPECT_EQ(on.jobs[i].success, off.jobs[i].success) << f.name;
      EXPECT_EQ(on.jobs[i].success_slot, off.jobs[i].success_slot)
          << f.name;
      EXPECT_EQ(on.jobs[i].transmissions, off.jobs[i].transmissions)
          << f.name;
      EXPECT_EQ(on.jobs[i].live_slots, off.jobs[i].live_slots) << f.name;
    }
    EXPECT_EQ(on.metrics.slots_simulated, off.metrics.slots_simulated)
        << f.name;
    EXPECT_EQ(on.metrics.slots_skipped, off.metrics.slots_skipped)
        << f.name;
    EXPECT_EQ(on.metrics.silent_slots, off.metrics.silent_slots) << f.name;
    EXPECT_EQ(on.metrics.success_slots, off.metrics.success_slots)
        << f.name;
    EXPECT_EQ(on.metrics.noise_slots, off.metrics.noise_slots) << f.name;
    EXPECT_EQ(on.metrics.live_peak, off.metrics.live_peak) << f.name;
    EXPECT_EQ(on.metrics.contention.count(), off.metrics.contention.count())
        << f.name;
    EXPECT_EQ(on.metrics.contention.min(), off.metrics.contention.min())
        << f.name;
    EXPECT_EQ(on.metrics.contention.max(), off.metrics.contention.max())
        << f.name;
    EXPECT_NEAR(on.metrics.contention.mean(), off.metrics.contention.mean(),
                1e-9)
        << f.name;
  }
}

/// Digest over everything kOn must share with kOff: jobs bitwise (every
/// JobResult field) and every integer metric except fast_forward_slots,
/// which only kOn accumulates. Contention is left out: kOn sums the parked
/// jobs in exact fixed point, so its double bits may differ from kOff's.
std::uint64_t outcome_digest(const SimResult& r) {
  std::uint64_t h = 0x4F55544FULL;  // "OUTO"
  h = mix(h, r.jobs.size());
  for (const JobResult& j : r.jobs) {
    for (const std::int64_t v :
         {static_cast<std::int64_t>(j.id), j.release, j.deadline,
          static_cast<std::int64_t>(j.success), j.success_slot,
          j.transmissions, j.live_slots, j.dark_slots, j.listen_slots}) {
      h = mix(h, static_cast<std::uint64_t>(v));
    }
  }
  const SimMetrics& m = r.metrics;
  for (const std::int64_t v :
       {m.slots_simulated, m.slots_skipped, m.live_peak, m.silent_slots,
        m.success_slots, m.noise_slots, m.jammed_slots, m.data_successes,
        m.control_successes, m.start_successes, m.claim_successes,
        m.timekeeper_successes, m.faults_injected, m.dark_job_slots,
        m.live_job_slots, m.feedback_flips, m.slots_awake,
        m.slots_listening, m.slots_transmitting, m.capture_wins,
        m.collision_cost_slots}) {
    h = mix(h, static_cast<std::uint64_t>(v));
  }
  h = mix(h, m.contention.count());
  return h;
}

std::vector<Factory> scheduled_factories() {
  std::vector<Factory> out = promising_factories();
  out.push_back({"energy_beb", baselines::make_energy_beb_factory({})});
  return out;
}

// Per-job wake scheduling on an overlapping burst, where parked and awake
// jobs share most slots: kOn visits only the awake jobs, in live order, and
// settles parked jobs' live slots lazily — so every job result and every
// integer metric must equal the slot-by-slot kOff run exactly, under every
// fast-forward-eligible feedback model and collision cost.
TEST(WakeScheduling, OnMatchesOffOnOverlappingBurst) {
  const workload::Instance burst = workload::gen_batch(256, 4096);
  for (const Factory& f : scheduled_factories()) {
    for (const auto& [fb_name, feedback] : feedback_models()) {
      for (const int cost : {1, 3}) {
        const SimResult off =
            run_with(burst, f.factory, FastForward::kOff, feedback, cost);
        const SimResult on =
            run_with(burst, f.factory, FastForward::kOn, feedback, cost);
        EXPECT_EQ(outcome_digest(on), outcome_digest(off))
            << f.name << "/" << fb_name << "/cost=" << cost;
      }
    }
  }
}

/// Counts the calls the engine makes into the protocols it wraps.
struct CallCounts {
  std::int64_t on_slot = 0;
  std::int64_t parks = 0;  // dormant_span calls that returned a promise
};

class CountingProtocol final : public Protocol {
 public:
  CountingProtocol(std::unique_ptr<Protocol> inner, CallCounts* counts)
      : inner_(std::move(inner)), counts_(counts) {}
  void on_activate(const JobInfo& info) override { inner_->on_activate(info); }
  SlotAction on_slot(const SlotView& view) override {
    ++counts_->on_slot;
    return inner_->on_slot(view);
  }
  void on_feedback(const SlotView& view, const SlotFeedback& fb) override {
    inner_->on_feedback(view, fb);
  }
  [[nodiscard]] bool done() const override { return inner_->done(); }
  [[nodiscard]] DormantSpan dormant_span(const SlotView& view) const override {
    const DormantSpan span = inner_->dormant_span(view);
    if (span.slots > 0) {
      ++counts_->parks;
    }
    return span;
  }

 private:
  std::unique_ptr<Protocol> inner_;
  CallCounts* counts_;
};

ProtocolFactory counting_factory(const ProtocolFactory& inner,
                                 CallCounts* counts) {
  return [inner, counts](const JobInfo& info, util::Rng rng) {
    return std::make_unique<CountingProtocol>(inner(info, std::move(rng)),
                                              counts);
  };
}

// O(awake) as a machine-independent property: kOn calls on_slot in a job's
// awake slots and, after a failed attempt, in the one sleeping slot before
// the job is offered dormant_span again and parks — so awake job-slots plus
// parks bound the calls. kOff, for contrast, calls it in every live
// job-slot.
TEST(WakeScheduling, OnSlotCallsTrackAwakeSlots) {
  const workload::Instance burst = workload::gen_batch(256, 4096);
  for (const Factory& f : scheduled_factories()) {
    for (const auto& [fb_name, feedback] : feedback_models()) {
      for (const int cost : {1, 3}) {
        CallCounts off_counts;
        const SimResult off =
            run_with(burst, counting_factory(f.factory, &off_counts),
                     FastForward::kOff, feedback, cost);
        EXPECT_EQ(off_counts.on_slot, off.metrics.live_job_slots);
        EXPECT_EQ(off_counts.parks, 0);

        CallCounts on_counts;
        const SimResult on =
            run_with(burst, counting_factory(f.factory, &on_counts),
                     FastForward::kOn, feedback, cost);
        EXPECT_GT(on_counts.parks, 0) << f.name;
        EXPECT_LE(on_counts.on_slot,
                  on.metrics.slots_awake + on_counts.parks)
            << f.name << "/" << fb_name << "/cost=" << cost;
        EXPECT_EQ(on.metrics.slots_awake, off.metrics.slots_awake);
      }
    }
  }
}

// The parked jobs' contention total is exact: parking and unparking any
// multiset of probabilities, in any order, returns it to exactly zero —
// which a double running total would not after 10^5 updates.
TEST(WakeScheduling, SleeperTotalReturnsToExactZero) {
  util::Rng rng(2026);
  std::vector<double> probs(100000);
  for (double& p : probs) {
    p = rng.next_double();
  }
  ContentionTotal total;
  double naive = 0.0;
  std::vector<double> parked;
  for (const double p : probs) {
    total.add(p);
    naive += p;
    parked.push_back(p);
    // Interleave: unpark a random parked job about every third park.
    if (rng.below(3) == 0) {
      const std::size_t k = static_cast<std::size_t>(
          rng.below(static_cast<std::uint64_t>(parked.size())));
      total.remove(parked[k]);
      naive -= parked[k];
      parked[k] = parked.back();
      parked.pop_back();
    }
  }
  EXPECT_GT(total.value(), 0.0);
  for (std::size_t k = parked.size(); k-- > 0;) {
    const std::size_t pick = static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(k + 1)));
    std::swap(parked[pick], parked[k]);
    total.remove(parked[k]);
    naive -= parked[k];
  }
  EXPECT_EQ(total, ContentionTotal{});
  EXPECT_EQ(total.value(), 0.0);
  // A double running total only ends near zero.
  EXPECT_LT(std::abs(naive), 1e-6);
}

/// Promises dormancy forever but transmits at since_release == 3.
class BrokenPromiseProtocol final : public Protocol {
 public:
  void on_activate(const JobInfo& info) override { info_ = info; }
  SlotAction on_slot(const SlotView& view) override {
    SlotAction action;
    action.sleep = true;
    if (view.since_release == 3) {
      action.transmit = true;
      action.message = make_data(info_.id);
    }
    return action;
  }
  void on_feedback(const SlotView&, const SlotFeedback&) override {}
  [[nodiscard]] bool done() const override { return false; }
  [[nodiscard]] DormantSpan dormant_span(const SlotView&) const override {
    return {64, 0.0};
  }

 private:
  JobInfo info_;
};

// kValidate checks parked jobs on stepped slots too: job 1 keeps the slots
// stepped while job 0 is parked across its (broken) promise.
TEST(WakeScheduling, ValidateCatchesBrokenPromiseWhileOthersAreAwake) {
  workload::Instance instance;
  instance.jobs.push_back(workload::JobSpec{0, 32});
  instance.jobs.push_back(workload::JobSpec{0, 32});
  const ProtocolFactory factory =
      [](const JobInfo& info, util::Rng rng) -> std::unique_ptr<Protocol> {
    if (info.id == 0) {
      return std::make_unique<BrokenPromiseProtocol>();
    }
    return baselines::make_sawtooth_factory()(info, std::move(rng));
  };
  EXPECT_THROW(run_with(instance, factory, FastForward::kValidate,
                        FeedbackModel{}, 1),
               std::logic_error);
  EXPECT_NO_THROW(
      run_with(instance, factory, FastForward::kOn, FeedbackModel{}, 1));
}

// A protocol without a dormancy promise (sawtooth inherits the no-promise
// default) makes fast-forward a provable no-op: zero skipped slots and a
// digest identical to kOff down to the last contention bit.
TEST(FastForward, NoPromiseProtocolDegradesToExactOff) {
  const auto sawtooth = baselines::make_sawtooth_factory();
  const workload::Instance instance = sparse_instance(32);
  const SimResult off =
      run_with(instance, sawtooth, FastForward::kOff, FeedbackModel{}, 1);
  const SimResult on =
      run_with(instance, sawtooth, FastForward::kOn, FeedbackModel{}, 1);
  EXPECT_EQ(on.metrics.fast_forward_slots, 0);
  EXPECT_EQ(sim_digest(on), sim_digest(off));
}

// Per-slot randomness the skip cannot reproduce disables fast-forward
// outright: a jammer consumes a draw per slot, so kOn silently becomes
// exact kOff behavior rather than skewing the jam stream.
TEST(FastForward, JammerDisablesFastForward) {
  core::Params params;
  params.lambda = 2;
  const auto uniform = core::make_uniform_factory(params);
  const workload::Instance instance = sparse_instance(32);
  const auto run_jammed = [&](FastForward ff) {
    SimConfig config;
    config.seed = 7;
    config.fast_forward = ff;
    return run(instance, uniform, config, make_blanket_jammer(0.2));
  };
  const SimResult off = run_jammed(FastForward::kOff);
  const SimResult on = run_jammed(FastForward::kOn);
  EXPECT_EQ(on.metrics.fast_forward_slots, 0);
  EXPECT_EQ(sim_digest(on), sim_digest(off));
}

// A SlotObserver needs every slot materialized; installing one suppresses
// skips (results still exact) so observers never see gaps.
TEST(FastForward, ObserverSuppressesSkips) {
  core::Params params;
  params.lambda = 2;
  const auto uniform = core::make_uniform_factory(params);
  SimConfig config;
  config.seed = 11;
  config.fast_forward = FastForward::kOn;
  Simulation simulation(sparse_instance(16), uniform, config);
  std::int64_t observed = 0;
  simulation.set_observer(
      [&](const SlotRecord&, std::span<const Transmission>) { ++observed; });
  const SimResult result = simulation.finish();
  EXPECT_EQ(result.metrics.fast_forward_slots, 0);
  EXPECT_EQ(observed, result.metrics.slots_simulated);
}

// ---------------------------------------------------------------------------
// Streaming-vs-batch bit equality
// ---------------------------------------------------------------------------

workload::Instance poisson_instance(std::uint64_t seed) {
  util::Rng rng(seed);
  workload::Instance instance =
      workload::gen_poisson(0.02, 1024, 4096, rng);
  instance.normalize();
  return instance;
}

SimResult run_streamed(const workload::Instance& instance,
                       const ProtocolFactory& factory, SimConfig config) {
  return run_stream(std::make_unique<VectorArrivals>(instance.jobs), factory,
                    std::move(config));
}

// Feeding the engine the same normalized job list through a VectorArrivals
// process must reproduce the batch run bit-for-bit: same ids, same
// per-job protocol streams, same metrics — with fast-forward off and on,
// and under a compaction threshold small enough to force many array
// erasures mid-run.
TEST(FastForward, StreamingMatchesBatchBitExactly) {
  core::Params params;
  params.lambda = 2;
  const auto uniform = core::make_uniform_factory(params);
  const workload::Instance instance = poisson_instance(123);
  ASSERT_FALSE(instance.empty());
  const Slot horizon = instance.max_deadline();

  for (const FastForward ff : {FastForward::kOff, FastForward::kOn}) {
    SimConfig config;
    config.seed = 42;
    config.horizon = horizon;
    config.fast_forward = ff;
    const SimResult batch = run(instance, uniform, config);
    const SimResult streamed = run_streamed(instance, uniform, config);
    EXPECT_EQ(sim_digest(batch), sim_digest(streamed))
        << "ff=" << static_cast<int>(ff);
    // jobs come back sorted by id in both modes.
    ASSERT_EQ(streamed.jobs.size(), instance.size());

    // Forced compaction must be invisible in the results.
    SimConfig tight = config;
    tight.stream_compact = 2;
    const SimResult compacted = run_streamed(instance, uniform, tight);
    EXPECT_EQ(sim_digest(batch), sim_digest(compacted))
        << "ff=" << static_cast<int>(ff) << " (stream_compact=2)";
  }
}

// keep_job_results=false is the bounded-memory mode: per-job results are
// dropped but the rolling StreamSummary must still agree with what the
// full-results run folded.
TEST(FastForward, StreamSummaryMatchesKeptResults) {
  core::Params params;
  params.lambda = 2;
  const auto uniform = core::make_uniform_factory(params);
  const workload::Instance instance = poisson_instance(321);
  ASSERT_FALSE(instance.empty());

  SimConfig config;
  config.seed = 5;
  config.horizon = instance.max_deadline();
  const SimResult kept = run_streamed(instance, uniform, config);
  SimConfig summary_only = config;
  summary_only.keep_job_results = false;
  const SimResult summary = run_streamed(instance, uniform, summary_only);

  EXPECT_TRUE(summary.jobs.empty());
  EXPECT_EQ(kept.stream.jobs,
            static_cast<std::int64_t>(instance.size()));
  EXPECT_EQ(summary.stream.jobs, kept.stream.jobs);
  EXPECT_EQ(summary.stream.delivered, kept.stream.delivered);
  EXPECT_EQ(summary.stream.delivered, kept.successes());
  EXPECT_EQ(summary.stream.latency.count(), kept.stream.latency.count());
  EXPECT_EQ(summary.stream.latency.mean(), kept.stream.latency.mean());
  EXPECT_EQ(summary.stream.accesses.mean(), kept.stream.accesses.mean());
}

}  // namespace
}  // namespace crmd::sim
