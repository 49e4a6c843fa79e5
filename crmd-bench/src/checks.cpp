#include "checks.hpp"

#include <cstring>

namespace crmd_bench {
namespace {

using crmd::Slot;

std::string eq_failure(const char* invariant, std::int64_t lhs,
                       std::int64_t rhs) {
  return std::string(invariant) + " (" + std::to_string(lhs) +
         " != " + std::to_string(rhs) + ")";
}

void expect_eq(const char* invariant, std::int64_t lhs, std::int64_t rhs,
               Violations& out) {
  if (lhs != rhs) {
    out.push_back(eq_failure(invariant, lhs, rhs));
  }
}

/// Latency (slots from release to delivery, inclusive) of a delivery inside
/// a window of `window` slots lies in [1, window].
void expect_latency_within(const crmd::util::RunningStats& latency,
                           Slot window, Violations& out) {
  if (latency.count() == 0) {
    return;
  }
  if (latency.min() < 1.0 || latency.max() > static_cast<double>(window)) {
    out.push_back("delivery inside [release, deadline) (latency range [" +
                  std::to_string(latency.min()) + ", " +
                  std::to_string(latency.max()) + "] outside [1, " +
                  std::to_string(window) + "])");
  }
}

/// Channel identities every run satisfies; always-listening families
/// (PUNCTUAL, ALIGNED) are awake in every live, non-dark job-slot.
void check_channel(const crmd::sim::SimMetrics& m, bool always_listening,
                   Violations& out) {
  expect_eq("silent + success + noise slots == slots_simulated",
            m.silent_slots + m.success_slots + m.noise_slots,
            m.slots_simulated, out);
  expect_eq("slots_awake == slots_listening + slots_transmitting",
            m.slots_awake, m.slots_listening + m.slots_transmitting, out);
  if (always_listening) {
    expect_eq("always-listening: slots_awake == live - dark job-slots",
              m.slots_awake, m.live_job_slots - m.dark_job_slots, out);
  }
}

}  // namespace

Violations check_batch(const crmd::sim::SimResult& result,
                       std::size_t jobs) {
  Violations out;
  expect_eq("every job reported once", static_cast<std::int64_t>(
                result.jobs.size()), static_cast<std::int64_t>(jobs), out);
  std::int64_t delivered = 0;
  std::int64_t outside = 0;
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const crmd::sim::JobResult& job = result.jobs[i];
    if (job.id != i) {
      out.push_back("every job reported once (job " + std::to_string(i) +
                    " has id " + std::to_string(job.id) + ")");
      break;
    }
    if (job.success) {
      ++delivered;
      if (job.success_slot < job.release ||
          job.success_slot >= job.deadline) {
        ++outside;
      }
    } else if (job.success_slot != crmd::kNoSlot) {
      ++outside;
    }
  }
  expect_eq("each job failed or delivered inside [release, deadline)",
            outside, 0, out);
  expect_eq("data_successes == delivered jobs", result.metrics.data_successes,
            delivered, out);
  check_channel(result.metrics, false, out);
  return out;
}

Violations check_stream(const crmd::sim::SimResult& result, Slot window) {
  Violations out;
  expect_eq("data_successes == delivered jobs", result.metrics.data_successes,
            result.stream.delivered, out);
  expect_eq("delivered jobs == deliveries with a latency",
            result.stream.delivered,
            static_cast<std::int64_t>(result.stream.latency.count()), out);
  expect_latency_within(result.stream.latency, window, out);
  check_channel(result.metrics, false, out);
  return out;
}

Violations check_report(const crmd::analysis::ReplicationReport& report) {
  Violations out;
  expect_eq("every generated job aggregated",
            static_cast<std::int64_t>(report.outcomes.jobs()),
            static_cast<std::int64_t>(report.jobs_per_rep.sum() + 0.5), out);
  expect_eq("data_successes == delivered jobs", report.channel.data_successes,
            static_cast<std::int64_t>(report.outcomes.overall().successes()),
            out);
  for (const auto& [window, bucket] : report.outcomes.by_window()) {
    expect_latency_within(bucket.latency, window, out);
  }
  check_channel(report.channel, true, out);
  return out;
}

void Fingerprint::add(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Fingerprint::add(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Fingerprint::add(const crmd::util::RunningStats& s) noexcept {
  add(static_cast<std::uint64_t>(s.count()));
  add(s.mean());
  add(s.variance());
  add(s.min());
  add(s.max());
}

void Fingerprint::add(const crmd::sim::SimMetrics& m) noexcept {
  for (const std::int64_t v :
       {m.slots_simulated, m.slots_skipped, m.fast_forward_slots, m.live_peak,
        m.silent_slots, m.success_slots, m.noise_slots, m.jammed_slots,
        m.data_successes, m.control_successes, m.start_successes,
        m.claim_successes, m.timekeeper_successes, m.faults_injected,
        m.feedback_corruptions, m.feedback_losses, m.clock_skew_events,
        m.crashes, m.restarts, m.dark_job_slots, m.live_job_slots,
        m.feedback_flips, m.slots_awake, m.slots_listening,
        m.slots_transmitting, m.capture_wins, m.collision_cost_slots}) {
    add(static_cast<std::uint64_t>(v));
  }
  add(m.contention);
}

void Fingerprint::add(const crmd::sim::SimResult& result) noexcept {
  add(result.metrics);
  for (const crmd::sim::JobResult& job : result.jobs) {
    for (const std::int64_t v :
         {static_cast<std::int64_t>(job.id), job.release, job.deadline,
          static_cast<std::int64_t>(job.success), job.success_slot,
          job.transmissions, job.live_slots, job.dark_slots,
          job.listen_slots}) {
      add(static_cast<std::uint64_t>(v));
    }
  }
  add(static_cast<std::uint64_t>(result.stream.jobs));
  add(static_cast<std::uint64_t>(result.stream.delivered));
  add(result.stream.latency);
  add(result.stream.accesses);
  add(result.stream.awake);
}

void Fingerprint::add(
    const crmd::analysis::ReplicationReport& report) noexcept {
  add(report.channel);
  add(static_cast<std::uint64_t>(report.replications));
  add(report.jobs_per_rep);
  for (const auto& [window, bucket] : report.outcomes.by_window()) {
    add(static_cast<std::uint64_t>(window));
    add(bucket.deadline_met.successes());
    add(bucket.deadline_met.trials());
    add(bucket.latency);
    add(bucket.accesses);
    add(bucket.awake);
  }
}

}  // namespace crmd_bench
