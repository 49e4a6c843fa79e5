#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <optional>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>

#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/arrivals.hpp"
#include "sim/multichannel.hpp"
#include "util/arena.hpp"

namespace crmd::sim {

namespace {
constexpr Slot kMaxSlot = std::numeric_limits<Slot>::max();
/// What a sleeping radio hears (DESIGN.md §6k): silence, no message.
const SlotFeedback kSilentFeedback{};
}  // namespace

std::string fast_forward_usage() { return "expected off | on | validate"; }

std::optional<FastForward> parse_fast_forward_spec(const std::string& spec,
                                                   std::ostream& diag) {
  if (spec == "off") {
    return FastForward::kOff;
  }
  if (spec == "on") {
    return FastForward::kOn;
  }
  if (spec == "validate") {
    return FastForward::kValidate;
  }
  diag << "error: bad --fast-forward spec '" << spec
       << "': " << fast_forward_usage() << '\n';
  return std::nullopt;
}

void SimConfig::validate() const {
  faults.validate();
  feedback.validate();
  if (collision_cost < 1) {
    throw std::invalid_argument(
        "SimConfig: collision_cost must be >= 1, got " +
        std::to_string(collision_cost));
  }
  if (!collision_detection && feedback.kind != FeedbackKind::kTernary) {
    throw std::invalid_argument(
        "SimConfig: the legacy collision_detection ablation only composes "
        "with the ternary feedback model; use "
        "FeedbackModel::collision_as_silence instead");
  }
  if (multichannel.channels < 1 || multichannel.channels > 256) {
    throw std::invalid_argument(
        "SimConfig: multichannel.channels must be in [1, 256], got " +
        std::to_string(multichannel.channels));
  }
  if (multichannel.migrate_after < 1) {
    throw std::invalid_argument(
        "SimConfig: multichannel.migrate_after must be >= 1, got " +
        std::to_string(multichannel.migrate_after));
  }
  if (multichannel.channels > 1) {
    if (feedback.kind == FeedbackKind::kNoisy ||
        feedback.kind == FeedbackKind::kCapture) {
      throw std::invalid_argument(
          "SimConfig: multichannel composes only with the ternary, "
          "binary_ack, and collision_as_silence feedback models (v1 scope, "
          "DESIGN.md §6j)");
    }
    if (!collision_detection) {
      throw std::invalid_argument(
          "SimConfig: multichannel does not compose with the legacy "
          "collision_detection ablation");
    }
  }
  if (stream_compact < 1) {
    throw std::invalid_argument(
        "SimConfig: stream_compact must be >= 1, got " +
        std::to_string(stream_compact));
  }
}

// Data-oriented engine layout (DESIGN.md §6e). Per-job state is split into
// hot structure-of-arrays scanned every slot (release/deadline/protocol
// pointer/live flag plus the per-job counters the decision loop bumps) and
// cold state touched once per job (JobResult). Protocols are constructed in
// place inside a per-simulation MonotonicArena when the factory supports it
// (all registered factories do); `live_pos` gives O(1) swap-removal from
// the live list; `dark`/`transmitted` are per-slot scratch whose clearing
// cost scales with the jobs actually touched, never with the total job
// count. All of this is bookkeeping only: the order of protocol
// construction, RNG child derivation, ticks, decisions, feedback, and
// retirement is exactly the historical order, so results stay bit-identical
// (pinned in tests/test_determinism_golden.cpp).
//
// Streaming mode (DESIGN.md §6j) reuses the same arrays but indexes them by
// ix(id) = id - base_id: jobs are appended at activation (the arrival
// process provides a one-job lookahead in `pending_spec`), folded into
// `stream` at retirement, and the dead prefix of the arrays is erased —
// bumping base_id — once it crosses the compaction threshold, so memory is
// bounded by the live set. In batch mode base_id stays 0 and ix() is the
// identity, so the hot path pays one subtract that constant-folds against a
// register holding zero.
struct Simulation::Impl {
  SimConfig config;
  /// Kept only for streaming appends (empty in batch mode).
  ProtocolFactory factory;
  util::Rng master{0};
  std::unique_ptr<Jammer> jammer;
  util::Rng jam_rng{0};
  /// Dedicated stream for the noisy feedback model's per-slot flip draws.
  /// Advanced only when the model is kNoisy with eps > 0, so every other
  /// model is bit-identical to the pre-model engine.
  util::Rng fb_rng{0};
  /// Dedicated stream for the capture model's winner draws. Advanced only
  /// when the model is kCapture with alpha > 0 on a slot with >= 2
  /// transmitters, so capture:0 is bit-identical to ternary.
  util::Rng cap_rng{0};
  /// Dedicated stream for streaming arrival draws ("ARRV").
  util::Rng arr_rng{0};
  /// Non-null = streaming mode.
  std::unique_ptr<ArrivalProcess> arrivals;
  /// Streaming one-job lookahead; nullopt = the stream is exhausted.
  std::optional<workload::JobSpec> pending_spec;
  /// Global id of arrays[0] (streaming compaction offset; 0 in batch).
  JobId base_id = 0;
  /// Next global id to assign (streaming).
  JobId next_id = 0;
  /// Nondecreasing-release enforcement for arrival processes.
  Slot last_release = 0;
  /// Streaming: arrays[0..dead_prefix) are all retired (never revived).
  std::size_t dead_prefix = 0;
  /// Streaming, keep_job_results: retired JobResults in retirement order
  /// (sorted by id in finish()).
  std::vector<JobResult> finished_results;
  StreamSummary stream;

  /// Remaining frozen slots of an armed collision cost (collision_cost - 1
  /// after each perceived collision); 0 on the paper's channel.
  Slot freeze_left = 0;
  /// Per-channel freeze counters (multichannel; sized channels when k > 1).
  std::vector<Slot> chan_freeze;
  /// Capabilities stamped into every JobInfo (derived once from the model).
  ChannelCaps caps;
  std::unique_ptr<FaultInjector> injector;  // null when the plan is empty

  // --- Hot per-job state (structure-of-arrays, indexed by ix(id)). ---
  std::vector<Slot> release;
  std::vector<Slot> deadline;
  std::vector<Protocol*> proto;        // null once retired
  std::vector<std::uint8_t> live_flag;
  std::vector<std::uint32_t> live_pos;  // index into `live`; valid while live
  // Per-job counters bumped in the decision loop; folded into the cold
  // JobResult once — at finish() in batch mode, at retirement in streaming.
  std::vector<std::int64_t> live_slot_count;
  std::vector<std::int64_t> dark_slot_count;
  std::vector<std::int64_t> tx_count;
  // Radio-energy accounting (DESIGN.md §6k): slots spent listening (awake
  // without transmitting). Sleep slots are the remainder of live_slot_count;
  // parked slots add nothing here — a dormant span is exactly a sleep span,
  // so they account zero awake slots, which is what makes the energy
  // counters bit-identical across --fast-forward modes.
  std::vector<std::int64_t> listen_count;
  // Last observed radio state (1 = awake) per job, for kRadioSleep /
  // kRadioWake transition events. Jobs activate awake (radio on at
  // power-up); parking puts a job to sleep at its park slot, exactly where
  // slot-by-slot simulation would.
  std::vector<std::uint8_t> prev_awake;
  // Multichannel (k > 1 only): each job's channel and collision count.
  std::vector<std::uint8_t> chan;
  std::vector<std::uint32_t> coll_count;
  // Wake scheduling (DESIGN.md §6j): a parked job's wake slot (0 = awake)
  // and the constant probability its dormancy promise declared. While a job
  // is parked its live_slot_count holds (count - park slot); unpark() and
  // settle_parked() add the slot back.
  std::vector<Slot> wake_at;
  std::vector<double> ff_prob;

  // --- Cold per-job state. ---
  std::vector<JobResult> results;

  // Backing store for the protocol objects. `arena_owned` is false only for
  // heap-only (legacy ad-hoc) factories and for streaming mode (an arena
  // never frees, so an open-ended run must use plain heap objects), in
  // which case `proto` holds plain owning pointers released with `delete`.
  util::MonotonicArena arena;
  bool arena_owned = false;

  std::vector<JobId> live;        // ids of live jobs
  std::size_t next_pending = 0;   // batch: first job not yet activated

  // Wake scheduler state (only used when ff_enabled). Every parked job has
  // exactly one entry in a min-heap on (wake slot, id); a stepped slot
  // visits only the awake set.
  struct Wake {
    Slot slot;
    JobId id;
  };
  std::vector<Wake> wake_heap;
  /// Live, unparked jobs; may hold retired ids until park_promised()
  /// filters them out.
  std::vector<JobId> awake_set;
  /// Awake jobs to offer dormant_span this slot: just activated, just
  /// unparked, or declared sleep in their last on_slot.
  std::vector<JobId> ask;
  /// Sum of ff_prob over the parked jobs, exact in fixed point.
  ContentionTotal sleepers;

  Slot now = 0;
  Slot horizon = 0;
  bool finished = false;
  /// True when this run qualifies for fast-forward at all (computed once;
  /// see SimConfig::fast_forward for the exclusions).
  bool ff_enabled = false;
  /// Lower bound on the earliest live deadline; lets the deadline-retire
  /// scan be skipped entirely while min_deadline > now. May go stale *low*
  /// after retirements (which only triggers a harmless extra scan), never
  /// stale high — activation refreshes it and triggered scans recompute it
  /// exactly — so results are provably identical.
  Slot min_deadline = kMaxSlot;

  SimMetrics metrics;
  std::vector<SlotRecord> slot_trace;
  SlotObserver observer;

  // Scratch buffers reused across slots. `dark` and `transmitted` are
  // job-indexed but cleared per slot only at the entries written this slot
  // (live jobs resp. transmitters), so per-slot cost tracks the live set.
  std::vector<Transmission> transmissions;
  std::vector<JobId> to_retire;
  std::vector<std::uint8_t> dark;         // "dark this slot" (faulted runs)
  std::vector<std::uint8_t> transmitted;  // "sent this slot" (ACK-only runs)
  std::vector<std::uint8_t> asleep;       // "slept this slot" (§6k scrub)
  // Multichannel per-slot scratch (k > 1 only), all indexed by channel.
  std::vector<std::vector<Transmission>> chan_tx;
  std::vector<double> chan_contention;
  std::vector<std::uint32_t> chan_live;
  std::vector<std::uint32_t> chan_awake;
  std::vector<SlotFeedback> chan_fb;           // true outcome
  std::vector<SlotFeedback> chan_listener;     // listener projection
  std::vector<SlotFeedback> chan_transmitter;  // transmitter projection
  std::vector<std::uint8_t> chan_split;

  [[nodiscard]] std::size_t ix(JobId id) const noexcept {
    return static_cast<std::size_t>(id - base_id);
  }

  [[nodiscard]] std::size_t job_count() const noexcept {
    return release.size();
  }

  [[nodiscard]] bool streaming() const noexcept { return arrivals != nullptr; }

  // Runs the protocol's destructor and releases (heap path) or abandons
  // (arena path — memory is reclaimed when the arena dies) its storage.
  void destroy_at(std::size_t i) noexcept {
    Protocol* p = proto[i];
    if (p == nullptr) {
      return;
    }
    proto[i] = nullptr;
    if (arena_owned) {
      p->~Protocol();
    } else {
      delete p;
    }
  }

  ~Impl() {
    for (std::size_t i = 0; i < proto.size(); ++i) {
      destroy_at(i);
    }
  }

  // Folds a retired (or horizon-cut) streaming job into the rolling
  // summary; the per-job counters are final once the job leaves the live
  // set, so this matches batch mode's fold-at-finish exactly.
  void fold_streamed(std::size_t i) {
    JobResult& r = results[i];
    r.live_slots = live_slot_count[i];
    r.dark_slots = dark_slot_count[i];
    r.transmissions = tx_count[i];
    r.listen_slots = listen_count[i];
    stream.add(r);
    if (config.keep_job_results) {
      finished_results.push_back(r);
    }
  }

  void retire(JobId id) {
    const std::size_t i = ix(id);
    if (live_flag[i] == 0) {
      return;
    }
    // Only awake jobs retire: a parked job wakes by its deadline, cannot
    // transmit, and promised done() stays false.
    assert(wake_at[i] == 0);
    CRMD_TRACE(config.tracer, obs::EventKind::kJobRetire, now, id,
               results[i].success ? 1 : 0);
    live_flag[i] = 0;
    destroy_at(i);
    const std::uint32_t pos = live_pos[i];
    assert(pos < live.size() && live[pos] == id);
    const JobId moved = live.back();
    live[pos] = moved;
    live_pos[ix(moved)] = pos;
    live.pop_back();
    if (streaming()) {
      fold_streamed(i);
    }
  }

  // The job a slot's true outcome delivers a data message for, or kNoJob.
  [[nodiscard]] JobId credited_winner(const SlotFeedback& fb) const {
    if (fb.outcome != SlotOutcome::kSuccess ||
        fb.message->kind != MessageKind::kData) {
      return kNoJob;
    }
    const JobId winner = fb.message->sender;
    assert(winner >= base_id && ix(winner) < job_count() &&
           live_flag[ix(winner)] != 0);
    return winner;
  }

  // Records the winner's success (before it retires, so the retire event
  // carries it).
  void credit(JobId winner) {
    CRMD_TRACE(config.tracer, obs::EventKind::kSuccessCredit, now, winner);
    results[ix(winner)].success = true;
    results[ix(winner)].success_slot = now;
  }

  // Streaming: refills the one-job lookahead, enforcing the process
  // contract (sane windows, nondecreasing releases) and ending the stream
  // at the horizon — releases are nondecreasing, so once one job starts at
  // or past the horizon every later one does too.
  void pull_next() {
    pending_spec.reset();
    auto job = arrivals->next(arr_rng);
    if (!job) {
      return;
    }
    if (job->release < 0 || job->deadline <= job->release) {
      throw std::invalid_argument(
          "ArrivalProcess: jobs need release >= 0 and deadline > release");
    }
    if (job->release < last_release) {
      throw std::runtime_error(
          "ArrivalProcess: releases must be nondecreasing");
    }
    last_release = job->release;
    if (job->release >= horizon) {
      return;
    }
    pending_spec = job;
  }

  // Streaming: appends one job to the arrays and activates it. Ids are
  // assigned in arrival order and each protocol draws from its own
  // master.child(id + 1) stream, exactly as the batch ctor does, so a
  // VectorArrivals replay of a normalized instance is bit-identical to the
  // batch run.
  void append_job(JobId id, const workload::JobSpec& spec) {
    JobInfo info;
    info.id = id;
    info.release = spec.release;
    info.deadline = spec.deadline;
    info.caps = caps;
    release.push_back(spec.release);
    deadline.push_back(spec.deadline);
    Protocol* p = factory(info, master.child(id + 1)).release();
    p->set_tracer(config.tracer);
    proto.push_back(p);
    live_flag.push_back(1);
    live_pos.push_back(static_cast<std::uint32_t>(live.size()));
    live.push_back(id);
    live_slot_count.push_back(0);
    dark_slot_count.push_back(0);
    tx_count.push_back(0);
    listen_count.push_back(0);
    prev_awake.push_back(1);
    dark.push_back(0);
    transmitted.push_back(0);
    asleep.push_back(0);
    wake_at.push_back(0);
    ff_prob.push_back(0.0);
    if (config.multichannel.channels > 1) {
      chan.push_back(static_cast<std::uint8_t>(
          shard_of(config.seed, id, config.multichannel.channels)));
      coll_count.push_back(0);
    }
    JobResult result;
    result.id = id;
    result.release = spec.release;
    result.deadline = spec.deadline;
    results.push_back(result);
    min_deadline = std::min(min_deadline, spec.deadline);
    CRMD_TRACE(config.tracer, obs::EventKind::kJobActivate, now, id,
               spec.release, spec.deadline);
    p->on_activate(info);
    mark_awake(id);
  }

  // Streaming: erases the dead prefix of every per-job array once it is
  // both large in absolute terms (stream_compact) and at least half the
  // arrays — each compaction removes >= half, so the per-job cost is
  // amortized O(1) and steady-state memory is O(live + stream_compact).
  void maybe_compact() {
    while (dead_prefix < live_flag.size() && live_flag[dead_prefix] == 0) {
      ++dead_prefix;
    }
    if (dead_prefix < static_cast<std::size_t>(config.stream_compact) ||
        dead_prefix * 2 < live_flag.size()) {
      return;
    }
    const auto n = static_cast<std::ptrdiff_t>(dead_prefix);
    const auto erase_prefix = [n](auto& v) {
      v.erase(v.begin(), v.begin() + n);
    };
    erase_prefix(release);
    erase_prefix(deadline);
    erase_prefix(proto);
    erase_prefix(live_flag);
    erase_prefix(live_pos);
    erase_prefix(live_slot_count);
    erase_prefix(dark_slot_count);
    erase_prefix(tx_count);
    erase_prefix(listen_count);
    erase_prefix(prev_awake);
    erase_prefix(dark);
    erase_prefix(transmitted);
    erase_prefix(asleep);
    erase_prefix(wake_at);
    erase_prefix(ff_prob);
    erase_prefix(results);
    if (config.multichannel.channels > 1) {
      erase_prefix(chan);
      erase_prefix(coll_count);
    }
    base_id += static_cast<JobId>(dead_prefix);
    dead_prefix = 0;
  }

  [[nodiscard]] bool is_live(JobId id) const noexcept {
    return id >= base_id && live_flag[ix(id)] != 0;
  }

  // --- Wake scheduling (DESIGN.md §6j) ---------------------------------
  // Under fast-forward, a job whose dormancy promise covers the next slots
  // is parked: it leaves the awake set and gets no on_slot, on_feedback or
  // done() call until its wake slot, so a stepped slot costs O(awake). When
  // the awake set is empty every live job is parked, and the engine skips
  // straight to the next wake, arrival or the horizon (skip_dormant).

  static bool later(const Wake& a, const Wake& b) noexcept {
    return a.slot != b.slot ? a.slot > b.slot : a.id > b.id;
  }

  // A job that activates or wakes joins the awake set and is offered
  // dormant_span.
  void mark_awake(JobId id) {
    if (ff_enabled) {
      awake_set.push_back(id);
      ask.push_back(id);
    }
  }

  void park(JobId id, const DormantSpan& span) {
    const std::size_t i = ix(id);
    // Clamped to the deadline, so a parked job always wakes before it
    // expires and only awake jobs ever retire.
    const Slot wake = std::min(now + span.slots, deadline[i]);
    wake_at[i] = wake;
    ff_prob[i] = span.prob;
    sleepers.add(span.prob);
    live_slot_count[i] -= now;
    wake_heap.push_back(Wake{wake, id});
    std::push_heap(wake_heap.begin(), wake_heap.end(), later);
    if (prev_awake[i] != 0) {
      CRMD_TRACE(config.tracer, obs::EventKind::kRadioSleep, now, id,
                 now - release[i], 0, 0.0, "sleep");
      prev_awake[i] = 0;
    }
  }

  // Ends job i's park at `slot`, settling its live slots [park, slot).
  void unpark(std::size_t i, Slot slot) {
    live_slot_count[i] += slot;
    wake_at[i] = 0;
    sleepers.remove(ff_prob[i]);
  }

  // Returns every job whose wake slot has come to the awake set.
  void wake_due() {
    while (!wake_heap.empty() && wake_heap.front().slot <= now) {
      std::pop_heap(wake_heap.begin(), wake_heap.end(), later);
      const Wake w = wake_heap.back();
      wake_heap.pop_back();
      assert(w.slot == now && is_live(w.id));
      unpark(ix(w.id), w.slot);
      mark_awake(w.id);
    }
  }

  // Offers dormant_span to this slot's ask list and parks every job that
  // promises, then drops parked and retired jobs from the awake set. Jobs
  // that listened in their last slot are never asked — a promise requires
  // sleep — so always-listening protocols cost no dormant_span calls.
  void park_promised() {
    for (const JobId id : ask) {
      if (!is_live(id)) {
        continue;
      }
      const std::size_t i = ix(id);
      const DormantSpan span =
          proto[i]->dormant_span(SlotView{now - release[i], now});
      if (span.slots > 0) {
        park(id, span);
      }
    }
    ask.clear();
    // With nothing parked the awake set is only read as "non-empty", so
    // retired ids are filtered lazily, once they could double its size.
    if (!wake_heap.empty() || awake_set.size() > 2 * live.size()) {
      std::erase_if(awake_set, [this](JobId id) {
        return !is_live(id) || wake_at[ix(id)] != 0;
      });
    }
  }

  // The jobs a stepped slot visits, in live order: all of `live` while
  // nothing is parked (always under kOff), else the awake set sorted by
  // live position. Transmissions, capture draws, retirements and trace
  // events therefore come in kOff's order.
  std::span<const JobId> visit_set() {
    if (wake_heap.empty()) {
      return live;
    }
    std::sort(awake_set.begin(), awake_set.end(), [this](JobId a, JobId b) {
      return live_pos[ix(a)] < live_pos[ix(b)];
    });
    return awake_set;
  }

  // Global fast-forward, the empty-awake-set case: every live job is
  // parked, so the slots up to the next wake, arrival or the horizon are
  // provably silent. They are accounted exactly as if simulated — slot
  // counts, silence counts, live job-slots, the obs::Timeline buckets —
  // with the parked jobs' constant contention; live slots settle lazily.
  void skip_dormant() {
    Slot until = std::min(horizon, wake_heap.front().slot);
    if (streaming()) {
      if (pending_spec) {
        until = std::min(until, pending_spec->release);
      }
    } else if (next_pending < job_count()) {
      until = std::min(until, release[next_pending]);
    }
    const Slot span = until - now;
    if (config.fast_forward == FastForward::kValidate) {
      validate_parked(span);
    }
    const double contention = sleepers.value();
    metrics.slots_simulated += span;
    metrics.silent_slots += span;
    metrics.fast_forward_slots += span;
    metrics.contention.add_run(contention, static_cast<std::size_t>(span));
    metrics.live_peak = std::max<std::int64_t>(
        metrics.live_peak, static_cast<std::int64_t>(live.size()));
    metrics.live_job_slots += span * static_cast<std::int64_t>(live.size());
    CRMD_TRACE(config.tracer, obs::EventKind::kIdleSkip, now, kNoJob, span,
               static_cast<std::int64_t>(live.size()), contention,
               "idle-skip");
    now = until;
  }

  // Settles the live slots of jobs still parked when the run ends.
  void settle_parked() {
    for (const Wake& w : wake_heap) {
      unpark(ix(w.id), now);
    }
    wake_heap.clear();
  }

  // kValidate: simulates the `span` slots from `now` in stripped form for
  // every parked job — on_slot plus silent feedback, exactly the calls
  // slot-by-slot simulation makes on a sleeper under every
  // fast-forward-eligible feedback model — and throws if any protocol
  // breaks its dormancy promise. State advances identically either way
  // (the promise says silent slots are state no-ops), so kValidate and kOn
  // produce bit-identical results; this is the checked proof of that.
  void validate_parked(Slot span) {
    SlotFeedback silent;
    silent.outcome = SlotOutcome::kSilence;
    silent.message.reset();
    for (Slot t = 0; t < span; ++t) {
      const Slot slot = now + t;
      ContentionTotal contention;
      for (const JobId id : live) {
        const std::size_t i = ix(id);
        if (wake_at[i] == 0) {
          continue;
        }
        const SlotView view{slot - release[i], slot};
        const SlotAction action = proto[i]->on_slot(view);
        if (action.transmit || action.declared_prob != ff_prob[i]) {
          throw std::logic_error(
              "fast-forward validate: a protocol broke its dormancy promise "
              "in on_slot (transmitted or changed its declared probability)");
        }
        if (!action.sleep) {
          // A dormant span is exactly a sleep span (DESIGN.md §6k): parked
          // slots account zero awake slots, so a protocol that promises
          // dormancy while listening would make the energy counters
          // diverge between --fast-forward modes.
          throw std::logic_error(
              "fast-forward validate: a protocol promised dormancy without "
              "declaring sleep (the parked slots would be accounted as "
              "asleep, but slot-by-slot simulation would count them as "
              "listening)");
        }
        contention.add(action.declared_prob);
      }
      if (contention != sleepers) {
        throw std::logic_error(
            "fast-forward validate: per-slot contention diverged from the "
            "parked jobs' promised total");
      }
      for (const JobId id : live) {
        const std::size_t i = ix(id);
        if (wake_at[i] == 0) {
          continue;
        }
        const SlotView view{slot - release[i], slot};
        proto[i]->on_feedback(view, silent);
        if (proto[i]->done()) {
          throw std::logic_error(
              "fast-forward validate: a protocol broke its dormancy promise "
              "in done() after silent feedback");
        }
      }
    }
  }

  // Single-channel decision -> resolve -> feedback -> record -> credit
  // pipeline: the engine's historical hot path, byte-for-byte the same
  // operation order as ever (ix() is the identity in batch mode). It visits
  // only `visit` (see visit_set); parked jobs get no calls and their
  // constant contention enters through `sleepers`.
  void step_single(std::int64_t faults_before,
                   std::span<const JobId> visit) {
    // Decision phase. A skewed job sees its perceived (slipped-ahead) slot
    // indices; a dark job is skipped entirely (no on_slot, no feedback).
    // Radio-state accounting (DESIGN.md §6k) rides along: a transmitter is
    // awake by definition, a non-transmitter is listening unless it
    // declared sleep, and a dark job's radio is off (crashed, not asleep).
    transmissions.clear();
    double contention = sleepers.value();  // 0.0 while nothing is parked
    std::int64_t tx_this_slot = 0;
    std::int64_t listen_this_slot = 0;
    for (const JobId id : visit) {
      const std::size_t i = ix(id);
      ++live_slot_count[i];
      if (injector != nullptr && dark[i] != 0) {
        ++dark_slot_count[i];
        continue;
      }
      const Slot skew = injector ? injector->skew(id) : 0;
      SlotView view{/*since_release=*/now - release[i] + skew,
                    /*global_slot=*/now + skew};
      const SlotAction action = proto[i]->on_slot(view);
      contention += action.declared_prob;
      const bool awake = action.transmit || !action.sleep;
      asleep[i] = awake ? 0 : 1;
      if (awake != (prev_awake[i] != 0)) {
        CRMD_TRACE(config.tracer,
                   awake ? obs::EventKind::kRadioWake
                         : obs::EventKind::kRadioSleep,
                   now, id, now - release[i], 0, 0.0,
                   awake ? "wake" : "sleep");
        prev_awake[i] = awake ? 1 : 0;
      }
      if (ff_enabled && !awake) {
        ask.push_back(id);
      }
      if (action.transmit) {
        transmissions.push_back(Transmission{id, action.message});
        ++tx_count[i];
        ++tx_this_slot;
        CRMD_TRACE(config.tracer, obs::EventKind::kTransmit, now, id,
                   static_cast<std::int64_t>(action.message.kind), 0,
                   action.declared_prob, to_string(action.message.kind));
      } else if (awake) {
        ++listen_count[i];
        ++listen_this_slot;
      }
    }
    metrics.slots_transmitting += tx_this_slot;
    metrics.slots_listening += listen_this_slot;
    metrics.slots_awake += tx_this_slot + listen_this_slot;
    metrics.live_job_slots += static_cast<std::int64_t>(live.size());

    // Channel resolution + capture + adversary (DESIGN.md §6i). Order:
    // resolve -> freeze override -> capture draw -> jammer. A frozen slot
    // (collision-cost recovery in progress) is noise for everyone no matter
    // what was attempted; capture can leak one winner out of a fresh
    // collision; the jammer acts last so an adaptive adversary can stomp a
    // captured success. The jammer is not consulted on frozen slots — the
    // channel is already noise, and jamming it would only waste budget.
    const bool frozen = freeze_left > 0;
    SlotFeedback fb = resolve_slot(transmissions);
    JobId capture_winner = kNoJob;
    bool jammed = false;
    if (frozen) {
      --freeze_left;
      fb.outcome = SlotOutcome::kNoise;
      fb.message.reset();
      ++metrics.collision_cost_slots;
      CRMD_TRACE(config.tracer, obs::EventKind::kCostSlot, now, kNoJob,
                 freeze_left, static_cast<std::int64_t>(transmissions.size()),
                 0.0, "cost");
    } else {
      if (config.feedback.kind == FeedbackKind::kCapture &&
          config.feedback.alpha > 0.0 && transmissions.size() >= 2) {
        // One winner survives a k-way collision with probability
        // p_k = alpha^(k-1); the winner is drawn uniformly. Both draws come
        // from the dedicated cap_rng stream, taken only on this path, so
        // alpha = 0 leaves every other stream untouched.
        const double p_win =
            std::pow(config.feedback.alpha,
                     static_cast<double>(transmissions.size() - 1));
        if (cap_rng.bernoulli(p_win)) {
          const std::size_t idx = static_cast<std::size_t>(cap_rng.below(
              static_cast<std::uint64_t>(transmissions.size())));
          fb.outcome = SlotOutcome::kSuccess;
          fb.message = transmissions[idx].message;
          capture_winner = transmissions[idx].job;
        }
      }
      if (jammer != nullptr) {
        const Message* msg = fb.message ? &*fb.message : nullptr;
        if (jammer->wants_jam(now, fb.outcome, msg) &&
            jam_rng.bernoulli(jammer->p_jam())) {
          fb.outcome = SlotOutcome::kNoise;
          fb.message.reset();
          jammed = true;
          capture_winner = kNoJob;  // the jam stomped the captured success
        }
      }
      // A perceived collision — genuine, capture-lost, or jam-created —
      // freezes the channel for the next cost-1 slots. Frozen slots never
      // re-arm, so a burst costs `cost` slots total, not a cascade.
      if (config.collision_cost > 1 && fb.outcome == SlotOutcome::kNoise) {
        freeze_left = config.collision_cost - 1;
      }
    }
    if (capture_winner != kNoJob) {
      ++metrics.capture_wins;
      CRMD_TRACE(config.tracer, obs::EventKind::kCaptureWin, now,
                 capture_winner,
                 static_cast<std::int64_t>(transmissions.size()), 0,
                 config.feedback.alpha, "capture");
    }

    // Feedback phase. The feedback model projects the true outcome into a
    // common listener view and (when transmitters perceive something
    // different) a transmitter view; faults then perturb per listener. The
    // true outcome `fb` stays authoritative for crediting below. All
    // projection work is O(1) per slot plus — only when the views split —
    // one O(transmitters) bitmap pass, so the per-listener "did I transmit"
    // check is O(1) instead of a rescan. No allocation.
    SlotFeedback listener_fb = fb;     // what a pure listener perceives
    SlotFeedback transmitter_fb = fb;  // what a transmitter perceives
    bool split = false;  // transmitter view differs from listener view
    switch (config.feedback.kind) {
      case FeedbackKind::kTernary:
        // Legacy unadvertised ablation: listeners perceive noisy slots as
        // silent; transmitters still learn their failure (ACK-style).
        if (!config.collision_detection &&
            fb.outcome == SlotOutcome::kNoise) {
          listener_fb.outcome = SlotOutcome::kSilence;
          listener_fb.message.reset();
          split = true;
        }
        break;
      case FeedbackKind::kBinaryAck:
        // Listeners hear nothing, ever; transmitters get the true outcome
        // (their own success, or noise when their transmission failed).
        listener_fb.outcome = SlotOutcome::kSilence;
        listener_fb.message.reset();
        split = !transmissions.empty();
        break;
      case FeedbackKind::kCollisionAsSilence:
        // Empty and collided slots are indistinguishable for everyone —
        // including the transmitters, who get no failure ACK.
        if (fb.outcome == SlotOutcome::kNoise) {
          listener_fb.outcome = SlotOutcome::kSilence;
          listener_fb.message.reset();
          transmitter_fb = listener_fb;
        }
        break;
      case FeedbackKind::kNoisy:
        // One seeded flip draw per simulated slot; on a flip every observer
        // hears the same one-step-degraded outcome.
        if (config.feedback.eps > 0.0 &&
            fb_rng.bernoulli(config.feedback.eps)) {
          listener_fb = degrade_feedback(fb);
          transmitter_fb = listener_fb;
          ++metrics.feedback_flips;
        }
        break;
      case FeedbackKind::kCapture:
        // On a captured success, listeners (and the winner, excluded from
        // the transmitted bitmap below) hear the success; the k-1 losers
        // perceive noise — their own signal drowned the broadcast out at
        // their radio. Without a capture win the channel is exactly ternary.
        if (capture_winner != kNoJob) {
          transmitter_fb.outcome = SlotOutcome::kNoise;
          transmitter_fb.message.reset();
          split = true;
        }
        break;
    }
    if (split) {
      for (const Transmission& t : transmissions) {
        transmitted[ix(t.job)] = 1;
      }
      if (capture_winner != kNoJob) {
        // The winner hears its own success.
        transmitted[ix(capture_winner)] = 0;
      }
    }
    // One pass delivers feedback and collects the finished jobs. The retire
    // order is the credited winner first, then the done jobs in visit
    // order. A dark job skips on_feedback but is still asked done(), so a
    // job already done (say, from activation) retires in this slot.
    to_retire.clear();
    const JobId winner = credited_winner(fb);
    if (winner != kNoJob) {
      to_retire.push_back(winner);
    }
    SlotFeedback faulted;  // one listener's view after injector->perceive
    for (const JobId id : visit) {
      const std::size_t i = ix(id);
      Protocol& p = *proto[i];
      if (injector == nullptr || dark[i] == 0) {
        const SlotFeedback* perceived =
            split && transmitted[i] != 0 ? &transmitter_fb : &listener_fb;
        Slot skew = 0;
        if (injector != nullptr) {
          faulted = injector->perceive(id, now, *perceived);
          perceived = &faulted;
          skew = injector->skew(id);
        }
        if (asleep[i] != 0) {
          // Enforce the sleep declaration (DESIGN.md §6k): a sleeper's
          // radio is off, so whatever the channel (or a fault) produced, it
          // hears silence. Scrubbed *after* injector->perceive so fault RNG
          // streams and fault metrics are untouched — a protocol that
          // declares sleep honestly (its state was feedback-independent
          // anyway) behaves bit-identically; one that lies sleeps through
          // real cues instead of silently under-reporting energy.
          // on_feedback is still called (it is the protocol's timer tick) —
          // except for parked jobs, whose dormancy promise makes the silent
          // tick a no-op.
          perceived = &kSilentFeedback;
        }
        p.on_feedback(SlotView{now - release[i] + skew, now + skew},
                      *perceived);
      }
      if (p.done() && id != winner) {
        to_retire.push_back(id);
      }
    }
    if (split) {
      for (const Transmission& t : transmissions) {
        transmitted[ix(t.job)] = 0;
      }
    }

    SlotRecord rec;
    rec.slot = now;
    rec.outcome = fb.outcome;
    rec.success_kind = fb.message ? fb.message->kind : MessageKind::kData;
    rec.contention = contention;
    rec.transmitters = static_cast<std::uint32_t>(transmissions.size());
    rec.live_jobs = static_cast<std::uint32_t>(live.size());
    rec.jammed = jammed;
    if (injector != nullptr) {
      rec.faults = static_cast<std::uint32_t>(injector->total_injected() -
                                              faults_before);
    }
    metrics.record(rec);
    CRMD_TRACE(config.tracer, obs::EventKind::kSlotResolved, now, kNoJob,
               static_cast<std::int64_t>(fb.outcome),
               static_cast<std::int64_t>(transmissions.size()), contention,
               to_string(fb.outcome));
    // The listener-perceived companion event: what the feedback model let
    // pure listeners hear this slot (before per-job fault perturbation),
    // plus the live-set size and (in x) the awake job count — the per-slot
    // energy datum obs::Timeline buckets. The gap between this and
    // kSlotResolved is the channel's perception error.
    CRMD_TRACE(config.tracer, obs::EventKind::kSlotPerceived, now, kNoJob,
               static_cast<std::int64_t>(listener_fb.outcome),
               static_cast<std::int64_t>(live.size()),
               static_cast<double>(tx_this_slot + listen_this_slot),
               to_string(listener_fb.outcome));
    if (config.record_slots) {
      slot_trace.push_back(rec);
    }
    if (observer) {
      observer(rec, transmissions);
    }

    // Credit the delivered data message and retire the jobs collected by
    // the feedback pass.
    if (winner != kNoJob) {
      credit(winner);
    }
    for (const JobId id : to_retire) {
      retire(id);
    }
  }

  // Multichannel pipeline (DESIGN.md §6j): one pass over the live set
  // buckets decisions per channel, then each of the k sub-channels
  // resolves, projects feedback, and records independently — k
  // channel-slots of metrics per time slot, up to k winners per slot.
  // Validation has already restricted the feedback model to
  // ternary/binary_ack/collision_as_silence and rejected jammers, so there
  // are no capture/jam/noisy draws here.
  void step_multi(std::int64_t faults_before) {
    const int k = config.multichannel.channels;
    const auto kc = static_cast<std::size_t>(k);
    if (chan_tx.size() != kc) {
      chan_tx.resize(kc);
      chan_fb.resize(kc);
      chan_listener.resize(kc);
      chan_transmitter.resize(kc);
    }
    for (auto& v : chan_tx) {
      v.clear();
    }
    chan_contention.assign(kc, 0.0);
    chan_live.assign(kc, 0);
    chan_awake.assign(kc, 0);
    chan_split.assign(kc, 0);

    // Decision phase, bucketed by channel (live order within each bucket).
    // Radio-state accounting mirrors step_single (DESIGN.md §6k).
    for (const JobId id : live) {
      const std::size_t i = ix(id);
      ++live_slot_count[i];
      const std::size_t c = chan[i];
      ++chan_live[c];
      if (injector != nullptr && dark[i] != 0) {
        ++dark_slot_count[i];
        continue;
      }
      const Slot skew = injector ? injector->skew(id) : 0;
      SlotView view{now - release[i] + skew, now + skew};
      const SlotAction action = proto[i]->on_slot(view);
      chan_contention[c] += action.declared_prob;
      const bool awake = action.transmit || !action.sleep;
      asleep[i] = awake ? 0 : 1;
      if (awake != (prev_awake[i] != 0)) {
        CRMD_TRACE(config.tracer,
                   awake ? obs::EventKind::kRadioWake
                         : obs::EventKind::kRadioSleep,
                   now, id, now - release[i],
                   static_cast<std::int64_t>(c), 0.0,
                   awake ? "wake" : "sleep");
        prev_awake[i] = awake ? 1 : 0;
      }
      if (awake) {
        ++chan_awake[c];
      }
      if (action.transmit) {
        chan_tx[c].push_back(Transmission{id, action.message});
        ++tx_count[i];
        ++metrics.slots_transmitting;
        ++metrics.slots_awake;
        CRMD_TRACE(config.tracer, obs::EventKind::kTransmit, now, id,
                   static_cast<std::int64_t>(action.message.kind),
                   static_cast<std::int64_t>(c), action.declared_prob,
                   to_string(action.message.kind));
      } else if (awake) {
        ++listen_count[i];
        ++metrics.slots_listening;
        ++metrics.slots_awake;
      }
    }
    metrics.live_peak = std::max<std::int64_t>(
        metrics.live_peak, static_cast<std::int64_t>(live.size()));
    metrics.live_job_slots += static_cast<std::int64_t>(live.size());

    // Per-channel resolution, freeze physics, and feedback projection.
    bool any_split = false;
    for (std::size_t c = 0; c < kc; ++c) {
      SlotFeedback fb = resolve_slot(chan_tx[c]);
      if (chan_freeze[c] > 0) {
        --chan_freeze[c];
        fb.outcome = SlotOutcome::kNoise;
        fb.message.reset();
        ++metrics.collision_cost_slots;
        CRMD_TRACE(config.tracer, obs::EventKind::kCostSlot, now, kNoJob,
                   chan_freeze[c],
                   static_cast<std::int64_t>(chan_tx[c].size()), 0.0, "cost");
      } else if (config.collision_cost > 1 &&
                 fb.outcome == SlotOutcome::kNoise) {
        chan_freeze[c] = config.collision_cost - 1;
      }
      SlotFeedback listener_fb = fb;
      SlotFeedback transmitter_fb = fb;
      bool split = false;
      switch (config.feedback.kind) {
        case FeedbackKind::kBinaryAck:
          listener_fb.outcome = SlotOutcome::kSilence;
          listener_fb.message.reset();
          split = !chan_tx[c].empty();
          break;
        case FeedbackKind::kCollisionAsSilence:
          if (fb.outcome == SlotOutcome::kNoise) {
            listener_fb.outcome = SlotOutcome::kSilence;
            listener_fb.message.reset();
            transmitter_fb = listener_fb;
          }
          break;
        case FeedbackKind::kTernary:
        default:  // kNoisy/kCapture rejected by validate()
          break;
      }
      chan_fb[c] = fb;
      chan_listener[c] = listener_fb;
      chan_transmitter[c] = transmitter_fb;
      chan_split[c] = split ? 1 : 0;
      any_split = any_split || split;
    }

    // Feedback phase: every live, non-dark job hears its own channel, and
    // the same pass collects the finished jobs — after the winners, which
    // come first in channel order (several winners can retire in one slot,
    // so a done job is checked against the at most k winners by scan).
    to_retire.clear();
    for (std::size_t c = 0; c < kc; ++c) {
      const JobId winner = credited_winner(chan_fb[c]);
      if (winner != kNoJob) {
        to_retire.push_back(winner);
      }
    }
    const std::size_t winners = to_retire.size();
    if (any_split) {
      for (std::size_t c = 0; c < kc; ++c) {
        if (chan_split[c] == 0) {
          continue;
        }
        for (const Transmission& t : chan_tx[c]) {
          transmitted[ix(t.job)] = 1;
        }
      }
    }
    SlotFeedback faulted;  // one listener's view after injector->perceive
    for (const JobId id : live) {
      const std::size_t i = ix(id);
      Protocol& p = *proto[i];
      if (injector == nullptr || dark[i] == 0) {
        const std::size_t c = chan[i];
        const SlotFeedback* perceived =
            chan_split[c] != 0 && transmitted[i] != 0 ? &chan_transmitter[c]
                                                      : &chan_listener[c];
        Slot skew = 0;
        if (injector != nullptr) {
          faulted = injector->perceive(id, now, *perceived);
          perceived = &faulted;
          skew = injector->skew(id);
        }
        if (asleep[i] != 0) {
          perceived = &kSilentFeedback;  // sleep scrub, see step_single
        }
        p.on_feedback(SlotView{now - release[i] + skew, now + skew},
                      *perceived);
      }
      if (p.done() &&
          std::count(to_retire.data(), to_retire.data() + winners, id) == 0) {
        to_retire.push_back(id);
      }
    }
    if (any_split) {
      for (std::size_t c = 0; c < kc; ++c) {
        if (chan_split[c] == 0) {
          continue;
        }
        for (const Transmission& t : chan_tx[c]) {
          transmitted[ix(t.job)] = 0;
        }
      }
    }

    // Record one channel-slot per channel. The fault-count delta of the
    // time slot is charged to channel 0's record so sums stay exact.
    for (std::size_t c = 0; c < kc; ++c) {
      SlotRecord rec;
      rec.slot = now;
      rec.outcome = chan_fb[c].outcome;
      rec.success_kind =
          chan_fb[c].message ? chan_fb[c].message->kind : MessageKind::kData;
      rec.contention = chan_contention[c];
      rec.transmitters = static_cast<std::uint32_t>(chan_tx[c].size());
      rec.live_jobs = chan_live[c];
      rec.jammed = false;
      if (c == 0 && injector != nullptr) {
        rec.faults = static_cast<std::uint32_t>(injector->total_injected() -
                                                faults_before);
      }
      metrics.record(rec);
      CRMD_TRACE(config.tracer, obs::EventKind::kSlotResolved, now, kNoJob,
                 static_cast<std::int64_t>(chan_fb[c].outcome),
                 static_cast<std::int64_t>(chan_tx[c].size()),
                 chan_contention[c], to_string(chan_fb[c].outcome));
      CRMD_TRACE(config.tracer, obs::EventKind::kSlotPerceived, now,
                 kNoJob, static_cast<std::int64_t>(chan_listener[c].outcome),
                 static_cast<std::int64_t>(chan_live[c]),
                 static_cast<double>(chan_awake[c]),
                 to_string(chan_listener[c].outcome));
      if (config.record_slots) {
        slot_trace.push_back(rec);
      }
      if (observer) {
        observer(rec, chan_tx[c]);
      }
    }

    // Collision accounting + optional migration: a transmitter whose
    // channel resolved (or froze) to noise suffered a collision; after
    // every migrate_after of them it rehashes deterministically — keyed on
    // (seed, id, collision count), no RNG stream — onto a fresh channel.
    for (std::size_t c = 0; c < kc; ++c) {
      if (chan_fb[c].outcome != SlotOutcome::kNoise) {
        continue;
      }
      for (const Transmission& t : chan_tx[c]) {
        const std::size_t i = ix(t.job);
        ++coll_count[i];
        if (config.multichannel.migrate &&
            coll_count[i] %
                    static_cast<std::uint32_t>(
                        config.multichannel.migrate_after) ==
                0) {
          chan[i] = static_cast<std::uint8_t>(shard_of(
              config.seed,
              (static_cast<std::uint64_t>(coll_count[i]) << 32) |
                  static_cast<std::uint64_t>(t.job),
              k));
        }
      }
    }

    // Credit up to one delivered data message per channel, then retire
    // the jobs collected by the feedback pass.
    for (std::size_t w = 0; w < winners; ++w) {
      credit(to_retire[w]);
    }
    for (const JobId id : to_retire) {
      retire(id);
    }
  }

  void init(SimConfig cfg, std::unique_ptr<Jammer> jam) {
    cfg.validate();
    config = cfg;
    jammer = std::move(jam);
    if (jammer != nullptr && config.multichannel.channels > 1) {
      throw std::invalid_argument(
          "Simulation: multichannel does not support a jamming adversary "
          "(v1 scope, DESIGN.md §6j)");
    }
    master = util::Rng(config.seed);
    jam_rng = util::Rng(config.seed).child(0x4A414D4D4552ULL);  // "JAMMER"
    fb_rng = util::Rng(config.seed).child(0x4642464C4950ULL);   // "FBFLIP"
    cap_rng = util::Rng(config.seed).child(0x43415054ULL);      // "CAPT"
    arr_rng = util::Rng(config.seed).child(0x41525256ULL);      // "ARRV"
    caps = config.feedback.caps();
    if (config.faults.any()) {
      injector = std::make_unique<FaultInjector>(config.faults, config.seed);
      injector->set_record_events(config.record_slots);
      injector->set_tracer(config.tracer);
    }
    if (config.multichannel.channels > 1) {
      chan_freeze.assign(
          static_cast<std::size_t>(config.multichannel.channels), 0);
    }
    ff_enabled =
        config.fast_forward != FastForward::kOff && jammer == nullptr &&
        !config.faults.any() &&
        !(config.feedback.kind == FeedbackKind::kNoisy &&
          config.feedback.eps > 0.0) &&
        !config.record_slots && config.multichannel.channels == 1;
  }
};

Simulation::Simulation(workload::Instance instance,
                       const ProtocolFactory& factory, SimConfig config,
                       std::unique_ptr<Jammer> jammer)
    : impl_(std::make_unique<Impl>()) {
  instance.normalize();
  instance.validate();

  Impl& s = *impl_;
  s.init(std::move(config), std::move(jammer));
  s.horizon =
      s.config.horizon > 0 ? s.config.horizon : instance.max_deadline();
  s.now = instance.empty() ? 0 : instance.min_release();

  const util::Rng master(s.config.seed);
  const std::size_t n = instance.size();
  s.release.reserve(n);
  s.deadline.reserve(n);
  s.proto.reserve(n);
  s.live_flag.assign(n, 0);
  s.live_pos.assign(n, 0);
  s.live_slot_count.assign(n, 0);
  s.dark_slot_count.assign(n, 0);
  s.tx_count.assign(n, 0);
  s.listen_count.assign(n, 0);
  s.prev_awake.assign(n, 1);
  s.results.reserve(n);
  s.dark.assign(n, 0);
  s.transmitted.assign(n, 0);
  s.asleep.assign(n, 0);
  s.wake_at.assign(n, 0);
  s.ff_prob.assign(n, 0.0);
  if (s.ff_enabled) {
    // Sized once: a burst parks every job, and doubling growth would leave
    // the outgrown buffers resident.
    s.wake_heap.reserve(n);
    s.awake_set.reserve(n);
    s.ask.reserve(n);
  }
  if (s.config.multichannel.channels > 1) {
    s.chan.reserve(n);
    s.coll_count.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      s.chan.push_back(static_cast<std::uint8_t>(
          shard_of(s.config.seed, static_cast<JobId>(i),
                   s.config.multichannel.channels)));
    }
  }
  s.arena_owned = factory.arena_aware();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& spec = instance.jobs[i];
    JobInfo info;
    info.id = static_cast<JobId>(i);
    info.release = spec.release;
    info.deadline = spec.deadline;
    info.caps = s.caps;
    s.release.push_back(spec.release);
    s.deadline.push_back(spec.deadline);
    // Same construction order and the same RNG child stream per job as the
    // original heap engine — the determinism contract depends on it.
    Protocol* p =
        s.arena_owned
            ? factory.emplace(info, master.child(static_cast<JobId>(i) + 1),
                              s.arena)
            : factory(info, master.child(static_cast<JobId>(i) + 1))
                  .release();
    p->set_tracer(s.config.tracer);
    s.proto.push_back(p);
    JobResult result;
    result.id = info.id;
    result.release = spec.release;
    result.deadline = spec.deadline;
    s.results.push_back(result);
  }
}

Simulation::Simulation(std::unique_ptr<ArrivalProcess> arrivals,
                       const ProtocolFactory& factory, SimConfig config,
                       std::unique_ptr<Jammer> jammer)
    : impl_(std::make_unique<Impl>()) {
  if (arrivals == nullptr) {
    throw std::invalid_argument("Simulation: arrival process must be non-null");
  }
  if (config.horizon <= 0) {
    throw std::invalid_argument(
        "Simulation: streaming mode requires an explicit horizon > 0 (an "
        "open-ended stream has no max_deadline to default to)");
  }
  Impl& s = *impl_;
  s.init(std::move(config), std::move(jammer));
  s.horizon = s.config.horizon;
  s.factory = factory;
  s.arena_owned = false;  // arena never frees; open-ended runs go heap
  s.arrivals = std::move(arrivals);
  s.pull_next();
  s.now = s.pending_spec ? s.pending_spec->release : 0;
}

Simulation::~Simulation() = default;
Simulation::Simulation(Simulation&&) noexcept = default;
Simulation& Simulation::operator=(Simulation&&) noexcept = default;

Slot Simulation::now() const noexcept { return impl_->now; }

bool Simulation::finished() const noexcept { return impl_->finished; }

void Simulation::set_observer(SlotObserver observer) {
  impl_->observer = std::move(observer);
}

std::vector<JobId> Simulation::live_jobs() const { return impl_->live; }

Protocol* Simulation::protocol(JobId id) noexcept {
  Impl& s = *impl_;
  if (id < s.base_id || s.ix(id) >= s.job_count() ||
      s.live_flag[s.ix(id)] == 0) {
    return nullptr;
  }
  return s.proto[s.ix(id)];
}

bool Simulation::step() {
  Impl& s = *impl_;
  if (s.finished) {
    return false;
  }

  // Fast-forward across idle gaps: nothing can happen on the channel while
  // no job is live.
  if (s.live.empty()) {
    Slot next_release = kMaxSlot;
    if (s.streaming()) {
      if (!s.pending_spec) {
        s.finished = true;
        return false;
      }
      next_release = s.pending_spec->release;
    } else {
      if (s.next_pending >= s.job_count()) {
        s.finished = true;
        return false;
      }
      next_release = s.release[s.next_pending];
    }
    if (next_release > s.now) {
      // A pending collision-cost freeze elapses across the skipped gap —
      // nobody is live to observe the frozen slots, so they are not
      // simulated (and not counted as cost slots).
      const Slot gap = next_release - s.now;
      s.freeze_left = std::max<Slot>(0, s.freeze_left - gap);
      for (Slot& f : s.chan_freeze) {
        f = std::max<Slot>(0, f - gap);
      }
      s.metrics.slots_skipped += gap;
      s.now = next_release;
    }
  }

  if (s.now >= s.horizon) {
    s.finished = true;
    return false;
  }

  // Activate arrivals.
  if (s.streaming()) {
    while (s.pending_spec && s.pending_spec->release <= s.now) {
      const workload::JobSpec spec = *s.pending_spec;
      const JobId id = s.next_id++;
      if (spec.deadline > s.now) {
        s.append_job(id, spec);
      } else {
        // Window already over (degenerate cases); never activates, but it
        // still counts as a job that entered (and failed).
        JobResult result;
        result.id = id;
        result.release = spec.release;
        result.deadline = spec.deadline;
        s.stream.add(result);
        if (s.config.keep_job_results) {
          s.finished_results.push_back(result);
        }
      }
      s.pull_next();
    }
  } else {
    while (s.next_pending < s.job_count() &&
           s.release[s.next_pending] <= s.now) {
      const JobId id = static_cast<JobId>(s.next_pending);
      if (s.deadline[id] > s.now) {
        s.live_flag[id] = 1;
        s.live_pos[id] = static_cast<std::uint32_t>(s.live.size());
        s.live.push_back(id);
        s.min_deadline = std::min(s.min_deadline, s.deadline[id]);
        CRMD_TRACE(s.config.tracer, obs::EventKind::kJobActivate, s.now, id,
                   s.release[id], s.deadline[id]);
        JobInfo info;
        info.id = id;
        info.release = s.release[id];
        info.deadline = s.deadline[id];
        info.caps = s.caps;
        s.proto[id]->on_activate(info);
        s.mark_awake(id);
      } else {
        // Window already over (degenerate horizon cases); never activates.
        s.destroy_at(id);
      }
      ++s.next_pending;
    }
  }

  if (s.ff_enabled) {
    s.wake_due();
  }

  // Retire jobs whose deadline has arrived (window is [release, deadline)).
  // The min_deadline cache makes the scan conditional: while the earliest
  // live deadline is still in the future nothing can expire, so the
  // per-slot O(live) sweep collapses to one comparison. The cache is a
  // lower bound (stale-low after other retirements), so a triggered scan
  // may find nothing — it then recomputes the exact minimum.
  if (s.min_deadline <= s.now) {
    s.to_retire.clear();
    Slot new_min = kMaxSlot;
    for (const JobId id : s.live) {
      const Slot d = s.deadline[s.ix(id)];
      if (d <= s.now) {
        s.to_retire.push_back(id);
      } else {
        new_min = std::min(new_min, d);
      }
    }
    for (const JobId id : s.to_retire) {
      s.retire(id);
    }
    s.min_deadline = new_min;
    if (s.live.empty()) {
      // All live jobs expired this slot; loop again from the top next call.
      if (s.streaming()) {
        s.maybe_compact();
      }
      return !s.finished;
    }
  }

  // Wake scheduling (DESIGN.md §6j): park the jobs that promise dormancy;
  // with nobody awake, skip to the next event. Runs after activation and
  // retirement (so the live set is current) and before the fault phase
  // (fast-forward and faults are mutually exclusive; see Impl::ff_enabled).
  // A collision-cost freeze or an observer needs the slot stepped.
  if (s.ff_enabled) {
    s.park_promised();
    if (s.awake_set.empty() && s.freeze_left == 0 && !s.observer) {
      s.skip_dormant();
      return !s.finished;
    }
    if (s.config.fast_forward == FastForward::kValidate &&
        !s.wake_heap.empty()) {
      s.validate_parked(1);
    }
  }

  // Fault phase: advance each live job's crash/stall/skew state. Dead jobs
  // retire immediately (the channel cannot tell a dead job from an absent
  // one); dark jobs stay live but neither transmit nor listen this slot.
  // The dark flags of this slot's live set are (re)written unconditionally,
  // so no all-jobs clear is needed — stale entries of retired jobs are
  // never read again.
  const std::int64_t faults_before =
      s.injector ? s.injector->total_injected() : 0;
  if (s.injector != nullptr) {
    s.to_retire.clear();
    std::int64_t dark_this_slot = 0;
    for (const JobId id : s.live) {
      const std::size_t i = s.ix(id);
      std::uint8_t is_dark = 0;
      switch (s.injector->tick(id, s.now)) {
        case FaultInjector::JobHealth::kHealthy:
          break;
        case FaultInjector::JobHealth::kDark:
          is_dark = 1;
          ++dark_this_slot;
          break;
        case FaultInjector::JobHealth::kDead:
          s.to_retire.push_back(id);
          break;
      }
      s.dark[i] = is_dark;
    }
    s.metrics.dark_job_slots += dark_this_slot;
    for (const JobId id : s.to_retire) {
      s.retire(id);
    }
    if (s.live.empty()) {
      if (s.streaming()) {
        s.maybe_compact();
      }
      return !s.finished;
    }
  }

  if (s.config.multichannel.channels > 1) {
    s.step_multi(faults_before);
  } else {
    s.step_single(faults_before, s.visit_set());
  }

  ++s.now;
  if (s.streaming()) {
    s.maybe_compact();
    if (s.live.empty() && !s.pending_spec) {
      s.finished = true;
    }
  } else if (s.live.empty() && s.next_pending >= s.job_count()) {
    s.finished = true;
  }
  return !s.finished;
}

SimResult Simulation::finish() {
  while (step()) {
  }
  Impl& s = *impl_;
  s.settle_parked();
  SimResult result;
  if (s.streaming()) {
    // Fold jobs still live at the horizon (never retired — matching batch
    // mode, which leaves horizon-cut jobs unretired and folds at finish).
    for (std::size_t i = 0; i < s.live_flag.size(); ++i) {
      if (s.live_flag[i] != 0) {
        s.live_flag[i] = 0;
        s.destroy_at(i);
        s.fold_streamed(i);
      }
    }
    s.live.clear();
    if (s.config.keep_job_results) {
      std::sort(s.finished_results.begin(), s.finished_results.end(),
                [](const JobResult& a, const JobResult& b) {
                  return a.id < b.id;
                });
      result.jobs = std::move(s.finished_results);
    }
    result.stream = s.stream;
  } else {
    // Fold the hot per-job counters into the cold results exactly once.
    for (std::size_t i = 0; i < s.results.size(); ++i) {
      JobResult& r = s.results[i];
      r.live_slots = s.live_slot_count[i];
      r.dark_slots = s.dark_slot_count[i];
      r.transmissions = s.tx_count[i];
      r.listen_slots = s.listen_count[i];
    }
    result.jobs = s.results;
  }
  result.metrics = s.metrics;
  if (s.injector != nullptr) {
    const FaultInjector& inj = *s.injector;
    result.metrics.faults_injected = inj.total_injected();
    result.metrics.feedback_corruptions = inj.count(FaultKind::kFeedbackCorrupt);
    result.metrics.feedback_losses = inj.count(FaultKind::kFeedbackLoss);
    result.metrics.clock_skew_events = inj.count(FaultKind::kClockSkew);
    result.metrics.crashes = inj.count(FaultKind::kCrash);
    result.metrics.restarts = inj.count(FaultKind::kRestart);
    result.fault_events = s.injector->take_events();
  }
  result.slots = std::move(s.slot_trace);
  // Feed the process-wide profiler so every harness (replication sweep or
  // hand-rolled loop) gets slots/sec — and the mega-scale meta fields —
  // for free.
  obs::global_profiler().add_slots(result.metrics.slots_simulated);
  obs::global_profiler().add_fast_forward_slots(
      result.metrics.fast_forward_slots);
  obs::global_profiler().note_live_peak(result.metrics.live_peak);
  return result;
}

SimResult run(workload::Instance instance, const ProtocolFactory& factory,
              SimConfig config, std::unique_ptr<Jammer> jammer) {
  Simulation sim(std::move(instance), factory, config, std::move(jammer));
  return sim.finish();
}

SimResult run_stream(std::unique_ptr<ArrivalProcess> arrivals,
                     const ProtocolFactory& factory, SimConfig config,
                     std::unique_ptr<Jammer> jammer) {
  Simulation sim(std::move(arrivals), factory, config, std::move(jammer));
  return sim.finish();
}

}  // namespace crmd::sim
