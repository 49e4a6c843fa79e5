#include "sim/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace crmd::sim {

double ContentionTotal::to_double(__int128_t fixed) noexcept {
  return std::ldexp(static_cast<double>(fixed), -64);
}

__int128_t ContentionTotal::to_fixed(double p) noexcept {
  // Truncation is exact and deterministic, so remove(p) undoes add(p).
  return static_cast<__int128_t>(std::ldexp(p, 64));
}

void StreamSummary::add(const JobResult& job) noexcept {
  ++jobs;
  if (job.success) {
    ++delivered;
    latency.add(static_cast<double>(job.latency()));
  }
  accesses.add(static_cast<double>(job.transmissions));
  awake.add(static_cast<double>(job.awake_slots()));
}

void StreamSummary::merge(const StreamSummary& other) noexcept {
  jobs += other.jobs;
  delivered += other.delivered;
  latency.merge(other.latency);
  accesses.merge(other.accesses);
  awake.merge(other.awake);
}

double StreamSummary::delivery_rate() const noexcept {
  return jobs == 0 ? 1.0
                   : static_cast<double>(delivered) /
                         static_cast<double>(jobs);
}

void SimMetrics::record(const SlotRecord& rec) {
  ++slots_simulated;
  live_peak =
      std::max(live_peak, static_cast<std::int64_t>(rec.live_jobs));
  contention.add(rec.contention);
  switch (rec.outcome) {
    case SlotOutcome::kSilence:
      ++silent_slots;
      break;
    case SlotOutcome::kSuccess:
      ++success_slots;
      switch (rec.success_kind) {
        case MessageKind::kData:
          ++data_successes;
          break;
        case MessageKind::kControl:
          ++control_successes;
          break;
        case MessageKind::kStart:
          ++start_successes;
          break;
        case MessageKind::kLeaderClaim:
          ++claim_successes;
          break;
        case MessageKind::kTimekeeper:
          ++timekeeper_successes;
          break;
      }
      break;
    case SlotOutcome::kNoise:
      ++noise_slots;
      break;
  }
  if (rec.jammed) {
    ++jammed_slots;
  }
}

void SimMetrics::merge(const SimMetrics& other) {
  slots_simulated += other.slots_simulated;
  slots_skipped += other.slots_skipped;
  fast_forward_slots += other.fast_forward_slots;
  live_peak = std::max(live_peak, other.live_peak);
  silent_slots += other.silent_slots;
  success_slots += other.success_slots;
  noise_slots += other.noise_slots;
  jammed_slots += other.jammed_slots;
  data_successes += other.data_successes;
  control_successes += other.control_successes;
  start_successes += other.start_successes;
  claim_successes += other.claim_successes;
  timekeeper_successes += other.timekeeper_successes;
  faults_injected += other.faults_injected;
  feedback_corruptions += other.feedback_corruptions;
  feedback_losses += other.feedback_losses;
  clock_skew_events += other.clock_skew_events;
  crashes += other.crashes;
  restarts += other.restarts;
  dark_job_slots += other.dark_job_slots;
  live_job_slots += other.live_job_slots;
  slots_awake += other.slots_awake;
  slots_listening += other.slots_listening;
  slots_transmitting += other.slots_transmitting;
  feedback_flips += other.feedback_flips;
  capture_wins += other.capture_wins;
  collision_cost_slots += other.collision_cost_slots;
  contention.merge(other.contention);
}

double SimMetrics::data_throughput() const noexcept {
  return slots_simulated == 0 ? 0.0
                              : static_cast<double>(data_successes) /
                                    static_cast<double>(slots_simulated);
}

std::int64_t SimResult::successes() const noexcept {
  std::int64_t count = 0;
  for (const auto& j : jobs) {
    count += j.success ? 1 : 0;
  }
  return count;
}

double SimResult::success_rate() const noexcept {
  return jobs.empty() ? 1.0
                      : static_cast<double>(successes()) /
                            static_cast<double>(jobs.size());
}

}  // namespace crmd::sim
