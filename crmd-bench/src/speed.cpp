#include "speed.hpp"

#include <algorithm>
#include <cstddef>

#include "layers.hpp"

namespace crmd_bench {
namespace {

/// 4 MiB: twice the L2 of one core on the reference host, so the pass
/// never runs from L2, whatever the workload's own footprint.
constexpr std::size_t kBufferDoubles = std::size_t{1} << 19;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One pass of four independent multiply-add streams.
double pass(const std::vector<double>& buffer) {
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  double d = 0.0;
  for (std::size_t i = 0; i < buffer.size(); i += 4) {
    a += buffer[i] * 1.0001;
    b += buffer[i + 1] * 0.9999;
    c += buffer[i + 2];
    d += buffer[i + 3];
  }
  return a + b + c + d;
}

}  // namespace

SpeedProbe::SpeedProbe() : buffer_(kBufferDoubles, 1.0) {}

void SpeedProbe::sample() {
  // Timed cold, as the workload left the caches. A second, warm pass
  // tracked the execution time far less closely: correlation 0.6 against
  // 0.95 for the cold one on dense-sleepy.
  const auto start = Clock::now();
  sink_ += pass(buffer_);
  samples_.push_back(seconds_since(start));
}

double SpeedProbe::spent_s() const noexcept {
  double total = 0.0;
  for (const double s : samples_) {
    total += s;
  }
  return total;
}

double SpeedProbe::scale() const {
  if (samples_.empty()) {
    return 1.0;
  }
  std::vector<double> v = samples_;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return kReferenceSeconds / *mid;
}

}  // namespace crmd_bench
