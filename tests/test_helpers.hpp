#pragma once

// Shared helpers for the crmd test suite: a scriptable protocol for driving
// the simulator deterministically, small instance builders, and per-test
// temp-file paths.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/protocol.hpp"
#include "workload/instance.hpp"

namespace crmd::test {

/// A protocol that transmits its data message at a fixed list of offsets
/// (slots since release) and otherwise listens. Never gives up on its own.
class ScriptProtocol final : public sim::Protocol {
 public:
  explicit ScriptProtocol(std::vector<Slot> offsets)
      : offsets_(std::move(offsets)) {}

  void on_activate(const sim::JobInfo& info) override { info_ = info; }

  sim::SlotAction on_slot(const sim::SlotView& view) override {
    sim::SlotAction action;
    transmitted_ = false;
    for (const Slot o : offsets_) {
      if (o == view.since_release) {
        action.transmit = true;
        action.message = sim::make_data(info_.id);
        action.declared_prob = 1.0;
        transmitted_ = true;
        break;
      }
    }
    return action;
  }

  void on_feedback(const sim::SlotView& /*view*/,
                   const sim::SlotFeedback& fb) override {
    if (transmitted_ && fb.outcome == sim::SlotOutcome::kSuccess) {
      succeeded_ = true;
    }
    ++feedbacks_;
  }

  [[nodiscard]] bool done() const override { return succeeded_; }

  [[nodiscard]] int feedbacks() const noexcept { return feedbacks_; }

 private:
  std::vector<Slot> offsets_;
  sim::JobInfo info_;
  bool transmitted_ = false;
  bool succeeded_ = false;
  int feedbacks_ = 0;
};

/// Factory where every job transmits at the same offsets-since-release.
inline sim::ProtocolFactory script_factory(std::vector<Slot> offsets) {
  return [offsets](const sim::JobInfo& /*info*/, util::Rng /*rng*/) {
    return std::make_unique<ScriptProtocol>(offsets);
  };
}

/// Factory scripting each job separately: scripts[i] holds job i's offsets.
inline sim::ProtocolFactory per_job_script_factory(
    std::vector<std::vector<Slot>> scripts) {
  return [scripts](const sim::JobInfo& info, util::Rng /*rng*/) {
    return std::make_unique<ScriptProtocol>(scripts.at(info.id));
  };
}

/// Builds an instance from (release, deadline) pairs.
inline workload::Instance instance_of(
    std::initializer_list<std::pair<Slot, Slot>> jobs) {
  workload::Instance out;
  for (const auto& [r, d] : jobs) {
    out.jobs.push_back(workload::JobSpec{r, d});
  }
  return out;
}

/// A temp-file path unique to the running test and process, so tests that
/// write files never share one under parallel ctest.
inline std::string unique_temp_path(const std::string& suffix) {
  const testing::TestInfo& info =
      *testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info.test_suite_name()) + "." + info.name();
  std::replace(name.begin(), name.end(), '/', '_');
  return testing::TempDir() + "crmd_" + name + "_" +
         std::to_string(::getpid()) + "_" + suffix;
}

}  // namespace crmd::test
