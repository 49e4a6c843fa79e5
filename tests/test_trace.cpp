// Tests for the CSV trace exporters.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "test_helpers.hpp"

namespace crmd::sim {
namespace {

TEST(Trace, SlotTraceCsvShape) {
  auto instance = test::instance_of({{0, 6}});
  SimConfig config;
  config.record_slots = true;
  const auto result = run(instance, test::script_factory({2}), config);

  std::ostringstream out;
  write_slot_trace_csv(out, result.slots);
  const std::string csv = out.str();
  // Header + one line per recorded slot.
  std::size_t lines = 0;
  for (const char ch : csv) {
    lines += (ch == '\n') ? 1 : 0;
  }
  EXPECT_EQ(lines, result.slots.size() + 1);
  EXPECT_NE(csv.find("slot,outcome"), std::string::npos);
  EXPECT_NE(csv.find("success,data"), std::string::npos)
      << "the delivery slot carries its message kind";
  EXPECT_NE(csv.find("silence"), std::string::npos);
}

TEST(Trace, JobResultsCsvShape) {
  auto instance = test::instance_of({{0, 10}, {0, 10}});
  const auto result =
      run(instance, test::per_job_script_factory({{2}, {2}}), SimConfig{});
  std::ostringstream out;
  write_job_results_csv(out, result.jobs);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("id,release,deadline"), std::string::npos);
  // Both jobs collided: success=0 and success_slot=-1.
  EXPECT_NE(csv.find(",0,-1,"), std::string::npos);
}

TEST(Trace, SaveToFileRoundTrips) {
  auto instance = test::instance_of({{0, 6}});
  SimConfig config;
  config.record_slots = true;
  const auto result = run(instance, test::script_factory({1}), config);
  const std::string path = test::unique_temp_path("slot_trace.csv");
  ASSERT_TRUE(save_slot_trace_csv(path, result.slots));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header,
            "slot,outcome,success_kind,contention,transmitters,live_jobs,"
            "jammed,faults");
  in.close();
  std::remove(path.c_str());
}

TEST(Trace, SaveFailsOnBadPath) {
  EXPECT_FALSE(save_slot_trace_csv("/nonexistent-dir/x.csv", {}));
  EXPECT_FALSE(save_job_results_csv("/nonexistent-dir/x.csv", {}));
}

}  // namespace
}  // namespace crmd::sim
