// crmd-bench: host cost of the crmd simulator, end to end and per layer.
//
//   crmd_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--tiny] [--corrupt]
//
// One process runs one workload for S seconds: it prepares and executes
// whole runs of the workload back to back, all from the same seed, checks
// every run's result and prints one JSON line last on stdout. With
// --trace 0 the line holds the end-to-end metrics, timed with no
// instrumentation, each run in a forked process of its own, and scaled to
// the reference host speed by a probe run between chunks of each
// execution (speed.hpp). With
// --trace 1 the process alternates untraced and traced runs and the line
// holds the per-layer metrics of the traced ones, plus
// trace.overhead_ratio. --tiny shrinks every workload for the self-test;
// --corrupt damages each result before it is checked, which the self-test
// uses to show that damage is caught. The exit code is 0 only when every
// run passed every check. README.md defines the workloads and metrics.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "layers.hpp"
#include "workloads.hpp"

namespace {

using namespace crmd_bench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt = false;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "crmd_bench: %s\nusage: crmd_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--tiny] [--corrupt]\nworkloads:",
               problem.c_str());
  for (const Workload& w : workloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (key == "--corrupt") {
      o.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage("missing value for " + key);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (!(o.seconds > 0.0 && o.seconds <= 3600.0)) {
        usage("--seconds must be in (0, 3600]");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        usage("--trace must be 0 or 1");
      }
      o.trace = value == "1";
    } else {
      usage("unknown argument " + key);
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      usage("malformed value for " + key + ": " + value);
    }
  }
  if (!have_workload) {
    usage("--workload is required");
  }
  return o;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) {
    return hi;
  }
  return (*std::max_element(v.begin(),
                            v.begin() + static_cast<std::ptrdiff_t>(mid)) +
          hi) /
         2.0;
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double as_double(std::int64_t v) { return static_cast<double>(v); }

/// Slots of simulated time a run advanced: stepped and fast-forwarded slots
/// once per time slot however many channels, plus idle slots skipped.
double timeline_slots(const Outcome& o) {
  return as_double(o.metrics.slots_simulated / o.channels +
                   o.metrics.slots_skipped);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// One run's timings and outcome.
struct Timed {
  /// False when the run threw or its process died; then only `out`'s
  /// violations are meaningful.
  bool completed = false;
  /// Every set-up timed for this run (see kSetupsPerRun).
  std::vector<double> setup_s;
  /// Host time of the execution, the speed probe's own time taken out.
  double wall_s = 0.0;
  /// SpeedProbe::scale() of the execution; 1 when it was not probed.
  double scale = 1.0;
  Outcome out;
};

/// Set-ups timed per untraced run. Set-up alone takes microseconds to
/// milliseconds, so each run prepares this many times and executes the
/// last preparation, giving setup_s more samples than wall_s.
constexpr int kSetupsPerRun = 3;

/// Prepares `setups` times and executes the last preparation, here.
Timed execute(const Workload& w, const Context& ctx, int setups) {
  Timed t;
  try {
    Run run;
    for (int i = 0; i < setups; ++i) {
      run = nullptr;
      const auto t0 = Clock::now();
      run = w.prepare(ctx);
      t.setup_s.push_back(seconds_since(t0));
    }
    const auto t1 = Clock::now();
    t.out = run();
    t.wall_s = seconds_since(t1);
    if (ctx.probe != nullptr) {
      t.wall_s -= ctx.probe->spent_s();
      t.scale = ctx.probe->scale();
    }
    t.completed = true;
  } catch (const std::exception& e) {
    t.out.violations.push_back(
        std::string("run completes without throwing (") + e.what() + ")");
  }
  return t;
}

/// Executes one untraced run in a forked child. A run that aborts (the
/// library keeps its model assertions on) or crashes is then counted as a
/// failed run instead of ending the benchmark without a result, every run
/// starts from the same fresh process state, and peak RSS is that of one
/// run. The child sends back the figures the end-to-end metrics need.
Timed execute_forked(const Workload& w, const Context& ctx) {
  int fds[2];
  if (pipe(fds) != 0) {
    throw std::runtime_error("crmd_bench: pipe failed");
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    throw std::runtime_error("crmd_bench: fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    const Timed t = execute(w, ctx, kSetupsPerRun);
    std::ostringstream msg;
    msg.precision(17);
    const crmd::sim::SimMetrics& m = t.out.metrics;
    msg << t.completed << ' ' << t.wall_s << ' ' << t.scale << ' '
        << t.out.channels << ' '
        << t.out.jobs << ' ' << t.out.delivered << ' ' << t.out.fingerprint
        << ' ' << m.live_job_slots << ' ' << m.slots_simulated << ' '
        << m.slots_skipped << ' ' << t.setup_s.size();
    for (const double s : t.setup_s) {
      msg << ' ' << s;
    }
    msg << '\n';
    for (const std::string& v : t.out.violations) {
      msg << v << '\n';
    }
    const std::string data = msg.str();
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = write(fds[1], data.data() + sent, data.size() - sent);
      if (n <= 0) {
        _exit(3);
      }
      sent += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string data;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      data.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  Timed t;
  std::istringstream in(data);
  crmd::sim::SimMetrics& m = t.out.metrics;
  std::size_t setups = 0;
  in >> t.completed >> t.wall_s >> t.scale >> t.out.channels >> t.out.jobs >>
      t.out.delivered >> t.out.fingerprint >> m.live_job_slots >>
      m.slots_simulated >> m.slots_skipped >> setups;
  for (std::size_t i = 0; i < setups && in; ++i) {
    double s = 0.0;
    in >> s;
    t.setup_s.push_back(s);
  }
  std::string line;
  std::getline(in, line);
  while (std::getline(in, line)) {
    t.out.violations.push_back(line);
  }
  if (!in.eof() || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    t.completed = false;
    t.out.violations.push_back("run process exits cleanly with its result");
  }
  return t;
}

/// Failed runs whose violations are printed.
constexpr std::int64_t kReportedFailures = 3;

/// Runs of one invocation and their verdicts.
class Tally {
 public:
  Tally(const Options& o, const char* workload) : o_(o), name_(workload) {}

  /// Counts one run. Its result must match the first run's: one seed gives
  /// one result, traced or not.
  void record(Timed& t, bool traced) {
    ++attempted_;
    if (t.completed) {
      std::fprintf(stderr,
                   "crmd_bench: %s run %lld%s: wall %.6f s, speed scale %.4f\n",
                   name_, static_cast<long long>(attempted_),
                   traced ? " (traced)" : "", t.wall_s, t.scale);
      if (!first_fingerprint_) {
        first_fingerprint_ = t.out.fingerprint;
      } else if (*first_fingerprint_ != t.out.fingerprint) {
        t.out.violations.push_back(
            traced ? "traced result fingerprint == untraced result fingerprint"
                   : "result fingerprint identical across runs of one seed");
      }
    }
    fail(t.out.violations);
  }

  /// Counts one more attempted run that failed for `violations` (none =
  /// passed).
  void record(const Violations& violations) {
    ++attempted_;
    fail(violations);
  }

  [[nodiscard]] std::int64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::int64_t failed() const noexcept { return failed_; }

 private:
  void fail(const Violations& violations) {
    if (violations.empty()) {
      return;
    }
    // Every run of a seed tends to fail alike; the first few say enough.
    if (++failed_ > kReportedFailures) {
      return;
    }
    for (const std::string& v : violations) {
      std::fprintf(stderr, "crmd_bench: %s seed=%llu: invariant failed: %s\n",
                   name_, static_cast<unsigned long long>(o_.seed),
                   v.c_str());
    }
  }

  const Options& o_;
  const char* name_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::optional<std::uint64_t> first_fingerprint_;
};

/// End-to-end metrics: whole runs back to back, one process each, for the
/// time allowed. Times are scaled to the reference host speed (speed.hpp).
std::vector<Metric> measure_end_to_end(const Options& o, const Workload& w,
                                       Tally& tally) {
  // Made here so that no run pays for allocating its buffer.
  SpeedProbe probe;
  const Context ctx{o.seed, o.tiny, o.corrupt, nullptr, &probe};
  std::vector<double> setup;
  std::vector<double> wall;
  std::vector<double> job_rate;
  std::vector<double> slot_rate;
  double success_rate = 0.0;
  const auto start = Clock::now();
  do {
    Timed t = execute_forked(w, ctx);
    tally.record(t, false);
    for (const double s : t.setup_s) {
      setup.push_back(s * t.scale);
    }
    if (!t.completed) {
      continue;
    }
    const double scaled_wall = t.wall_s * t.scale;
    wall.push_back(scaled_wall);
    job_rate.push_back(as_double(t.out.metrics.live_job_slots) /
                       scaled_wall);
    slot_rate.push_back(timeline_slots(t.out) / scaled_wall);
    success_rate = ratio(as_double(t.out.delivered), as_double(t.out.jobs));
  } while (seconds_since(start) < o.seconds);
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return {
      {"wall_s", median(wall), "s"},
      {"job_slots_per_s", median(job_rate), "job-slots/s"},
      {"timeline_slots_per_s", median(slot_rate), "slots/s"},
      {"setup_s", median(setup), "s"},
      // Largest run process; ru_maxrss is in KiB on Linux.
      {"peak_rss_mb", static_cast<double>(children.ru_maxrss) / 1024.0,
       "MiB"},
      {"deadline_success_rate", success_rate, "fraction"},
      {"run_ok_rate",
       ratio(as_double(tally.attempted() - tally.failed()),
             as_double(tally.attempted())),
       "fraction"},
  };
}

/// Per-layer metrics: untraced and traced runs alternate, so the overhead
/// ratio compares runs made under the same machine conditions.
std::vector<Metric> measure_per_layer(const Options& o, const Workload& w,
                                      Tally& tally) {
  (void)clock_overhead_ns();
  (void)take_stats();
  EngineTrace trace;
  std::vector<double> plain_wall;
  std::vector<double> traced_wall;
  Outcome last;
  const Context plain{o.seed, o.tiny, o.corrupt, nullptr};
  const Context traced{o.seed, o.tiny, o.corrupt, &trace};
  const auto start = Clock::now();
  Timed warm_up = execute(w, plain, 1);  // pays for cold caches; untimed
  tally.record(warm_up, false);
  do {
    Timed t = execute(w, plain, 1);
    tally.record(t, false);
    if (t.completed) {
      plain_wall.push_back(t.wall_s);
    }
    {
      const Sampling sampling;
      t = execute(w, traced, 1);
    }
    tally.record(t, true);
    if (t.completed) {
      traced_wall.push_back(t.wall_s);
      last = std::move(t.out);
    }
  } while (seconds_since(start) < o.seconds);
  const LayerStats stats = take_stats();
  if (w.validate) {
    tally.record(w.validate(Context{o.seed, o.tiny, false, nullptr}));
  }

  const double runs =
      std::max(1.0, static_cast<double>(traced_wall.size()));
  const crmd::sim::SimMetrics& m = last.metrics;
  double inner_ms =
      stats.busy_ms(Layer::kJammer) + stats.busy_ms(Layer::kArrivals);
  std::int64_t on_slot_calls = 0;
  for (std::size_t i = 0; i < kFamilies; ++i) {
    inner_ms += stats.busy_ms(static_cast<Layer>(i + 1));
    on_slot_calls += stats.family[i].on_slot;
  }
  // The benchmark steps Simulation itself except under run_replications,
  // whose simulation phase is the engine time there.
  const double engine_ms =
      trace.step_calls > 0 ? trace.step_ms : trace.simulation_ms;

  std::vector<Metric> out{
      {"workload.gen_ms", stats.generator_ms / runs, "ms"},
      {"workload.jobs", as_double(stats.generated_jobs) / runs, "count"},
      {"sim.ctor_ms", trace.ctor_ms / runs, "ms"},
      {"sim.step_calls", as_double(trace.step_calls) / runs, "count"},
      {"sim.step_samples", as_double(static_cast<std::int64_t>(
                               trace.step_ns.size())), "count"},
      {"sim.step_ns_p50", percentile(trace.step_ns, 0.50), "ns"},
      {"sim.step_ns_p99", percentile(trace.step_ns, 0.99), "ns"},
      {"sim.engine_self_ms", std::max(0.0, engine_ms - inner_ms) / runs,
       "ms"},
      {"sim.slots_stepped",
       as_double(m.slots_simulated / last.channels - m.fast_forward_slots),
       "count"},
      {"sim.fast_forward_slots", as_double(m.fast_forward_slots), "count"},
      {"sim.slots_skipped", as_double(m.slots_skipped), "count"},
      {"sim.live_peak", as_double(m.live_peak), "count"},
      {"sim.awake_ratio",
       ratio(as_double(m.slots_awake), as_double(m.live_job_slots)), "ratio"},
      {"sim.visits_per_awake",
       ratio(as_double(on_slot_calls) / runs, as_double(m.slots_awake)),
       "ratio"},
      {"channel.success_per_busy_slot",
       ratio(as_double(m.success_slots),
             as_double(m.success_slots + m.noise_slots)),
       "ratio"},
      {"faults.injected", as_double(m.faults_injected), "count"},
      {"faults.dark_job_slots", as_double(m.dark_job_slots), "count"},
      {"arrivals.next_calls", as_double(stats.arrivals_calls) / runs,
       "count"},
      {"arrivals.ms", stats.busy_ms(Layer::kArrivals) / runs, "ms"},
      {"jammer.calls", as_double(stats.jammer_calls) / runs, "count"},
      {"jammer.ms", stats.busy_ms(Layer::kJammer) / runs, "ms"},
      {"jammer.jammed_slots", as_double(m.jammed_slots), "count"},
  };
  for (std::size_t i = 0; i < kFamilies; ++i) {
    const FamilyCalls& f = stats.family[i];
    const auto layer = static_cast<Layer>(i + 1);
    const std::string p = family_name(static_cast<Family>(i));
    const std::int64_t calls =
        f.on_activate + f.on_slot + f.on_feedback + f.done + f.dormant_span;
    out.push_back({p + ".on_slot_calls", as_double(f.on_slot) / runs,
                   "count"});
    out.push_back({p + ".on_feedback_calls", as_double(f.on_feedback) / runs,
                   "count"});
    out.push_back({p + ".done_calls", as_double(f.done) / runs, "count"});
    out.push_back({p + ".dormant_span_calls",
                   as_double(f.dormant_span) / runs, "count"});
    out.push_back({p + ".ns_per_call",
                   ratio(stats.busy_ms(layer) * 1e6, as_double(calls)), "ns"});
    out.push_back({p + ".ticks",
                   as_double(stats.ticks[static_cast<std::size_t>(layer)]),
                   "count"});
    out.push_back({p + ".self_ms", stats.busy_ms(layer) / runs, "ms"});
  }
  out.push_back({"analysis.generate_ms", trace.generate_ms / runs, "ms"});
  out.push_back({"analysis.simulation_ms", trace.simulation_ms / runs, "ms"});
  out.push_back({"analysis.aggregate_ms", trace.aggregate_ms / runs, "ms"});
  out.push_back({"analysis.worker_busy_ratio",
                 ratio(trace.simulation_ms,
                       trace.workers * trace.sweep_wall_ms),
                 "ratio"});
  out.push_back({"trace.overhead_ratio",
                 ratio(median(traced_wall), median(plain_wall)), "ratio"});
  return out;
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += tally.failed() == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(tally.attempted());
  line += ", \"failed\": " + std::to_string(tally.failed());
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.15g", metrics[i].value);
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const auto& all = workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return o.workload == w.name;
  });
  if (it == all.end()) {
    usage("unknown workload " + o.workload);
  }
  Tally tally(o, it->name);
  const std::vector<Metric> metrics = o.trace
                                          ? measure_per_layer(o, *it, tally)
                                          : measure_end_to_end(o, *it, tally);
  print_result(tally, metrics);
  return tally.failed() == 0 ? 0 : 1;
}
