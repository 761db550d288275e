#include "runner.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "embed/embed_cache.h"
#include "json.h"
#include "loops.h"
#include "ml/random_forest.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "output_check.h"
#include "querc/admission.h"
#include "service.h"
#include "spans.h"
#include "sql/lexer.h"
#include "sql/lint/engine.h"
#include "stats.h"
#include "util/stopwatch.h"

namespace perfbench {

namespace {

namespace core = querc::core;
namespace obs = querc::obs;
using querc::workload::LabeledQuery;
using querc::workload::Workload;

// Seed purposes (see DeriveSeed); the generator uses purpose 1.
constexpr uint64_t kLightSchedule = 10;
constexpr uint64_t kHeavySchedule = 11;
constexpr uint64_t kCheckSample = 12;
constexpr uint64_t kRoundInputs = 13;

// Rounds per run, each on a freshly generated workload and a freshly set-up
// service; setup_s is the median of their set-ups and label_accuracy the
// mean of their accuracies.
constexpr size_t kRounds = 3;
// Queries per ProcessBatch call in the closed loop and the warm-up.
constexpr size_t kBatchSize = 64;
// Stream positions whose predictions are checked against an uncached
// Classifier::Predict (lint is checked at every position).
constexpr size_t kCheckSampleSize = 4096;
// Each round's schedules use purpose + kRoundStride * round.
constexpr uint64_t kRoundStride = 100;

// Warm-up: kWarmupWindows closed-loop windows of kWarmupWindow queries,
// part of set-up, then (untimed) more windows until the last
// kSettleWindows windows' throughputs are within kSettleRatio of each
// other. Only the fixed part counts as set-up, so setup_s measures work
// done: how long the settling test runs follows host noise.
constexpr size_t kWarmupWindow = 4096;
constexpr size_t kWarmupWindows = 6;
constexpr size_t kSettleWindows = 3;
constexpr double kSettleRatio = 1.15;
constexpr size_t kMaxWarmupWindows = 24;

// Each measured phase is cut into this many consecutive windows, and an
// end-to-end metric is the better quartile over the windows of all rounds
// (the 75th percentile of throughputs, the 25th of latencies). Steal time
// on a shared host only ever slows a window, so this tracks what the
// program does as long as a quarter of the windows run undisturbed; a
// median moved with every busy host period.
constexpr size_t kWindowsPerPhase = 8;

// Traced runs: alternating untraced/traced segment pairs for the overhead,
// the queue-wait probe period, and per-phase replay sizes.
constexpr size_t kOverheadPairs = 3;
constexpr auto kProbePeriod = std::chrono::microseconds(1000);
constexpr size_t kReplayQueries = 1000;
constexpr size_t kReplayInfer = 200;

// ---------------------------------------------------------------------------
// Program-exported state at a phase boundary.

struct Snapshot {
  obs::HistogramSnapshot service;  // QWorkerPool::MergedLatency()
  std::vector<obs::HistogramSnapshot> shard_service;
  std::vector<size_t> shard_processed;
  querc::embed::EmbedCacheStats cache;
  size_t shed = 0;
  obs::FlightRecorder::Stats flight;
  std::map<std::string, obs::HistogramSnapshot> stages;  // querc_stage_ms
  obs::HistogramSnapshot train_ms;
  obs::HistogramSnapshot deploy_ms;
};

obs::HistogramSnapshot RegistryHistogram(const std::string& name) {
  obs::HistogramSnapshot merged;
  for (const auto& sample :
       obs::MetricsRegistry::Global().Collect(name).histograms) {
    if (sample.name == name) merged.Merge(sample.snapshot);
  }
  return merged;
}

Snapshot Take(const core::QWorkerPool& pool) {
  Snapshot s;
  s.service = pool.MergedLatency();
  for (const core::ShardStats& shard : pool.Stats(0)) {
    s.shard_service.push_back(shard.histogram);
    s.shard_processed.push_back(shard.processed);
  }
  s.cache = pool.MergedEmbedCacheStats();
  s.shed = pool.shed_count();
  s.flight = obs::FlightRecorder::Global().stats();
  for (const auto& sample :
       obs::MetricsRegistry::Global().Collect("querc_stage_ms").histograms) {
    for (const auto& [key, value] : sample.labels) {
      if (key == "stage") s.stages[value] = sample.snapshot;
    }
  }
  s.train_ms = RegistryHistogram("querc_training_train_ms");
  s.deploy_ms = RegistryHistogram("querc_training_deploy_ms");
  return s;
}

/// Embedding-cache counters gained between two snapshots.
querc::embed::EmbedCacheStats CacheDelta(const Snapshot& after,
                                         const Snapshot& before) {
  querc::embed::EmbedCacheStats d;
  d.hits = after.cache.hits - before.cache.hits;
  d.misses = after.cache.misses - before.cache.misses;
  d.evictions = after.cache.evictions - before.cache.evictions;
  return d;
}

/// Keeps the compiler from discarding a replayed call whose result is
/// otherwise unused.
inline void KeepAlive(uintptr_t v) { asm volatile("" : : "r"(v)); }

/// after - before, bucket by bucket. min/max are not recoverable from a
/// difference, so the delta clamps percentiles to [0, after.max].
obs::HistogramSnapshot Delta(const obs::HistogramSnapshot& after,
                             const obs::HistogramSnapshot& before) {
  obs::HistogramSnapshot d;
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  d.min = 0.0;
  d.max = after.max;
  d.buckets = after.buckets;
  for (size_t i = 0; i < d.buckets.size() && i < before.buckets.size(); ++i) {
    d.buckets[i] -= before.buckets[i];
  }
  return d;
}

Json HistogramJson(const obs::HistogramSnapshot& h) {
  return Json::Object()
      .Set("count", h.count)
      .Set("mean_ms", h.mean())
      .Set("p50_ms", h.p50())
      .Set("p99_ms", h.p99());
}

Json SummaryJson(const std::vector<double>& values) {
  LatencySummary s = Summarize(values);
  return Json::Object()
      .Set("count", s.count)
      .Set("p50_ms", s.p50)
      .Set("p90_ms", Percentile(values, 0.9))
      .Set("p99_ms", s.p99_supported() ? Json(s.p99) : Json())
      .Set("mean_ms", s.mean)
      .Set("highest_supported_quantile", s.supported_q);
}

Json ArrayJson(const std::vector<double>& values) {
  Json a = Json::Array();
  for (double v : values) a.Push(v);
  return a;
}

double MeanOf(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Traced runs: a thread that submits a no-op task to the shared pool's
// interactive lane every kProbePeriod and records submit -> start.

class QueueWaitProbe {
 public:
  QueueWaitProbe(querc::util::ThreadPool& pool, SpanRecorder& spans,
                 uint64_t parent)
      : pool_(pool), spans_(spans), parent_(parent), thread_([this] {
          Loop();
        }) {}

  QueueWaitProbe(const QueueWaitProbe&) = delete;
  QueueWaitProbe& operator=(const QueueWaitProbe&) = delete;

  ~QueueWaitProbe() { Stop(); }

  /// Stops submitting and waits for every submitted probe to run.
  std::vector<double> Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    while (outstanding_.load() != 0) std::this_thread::yield();
    std::lock_guard<std::mutex> lock(mu_);
    return waits_ms_;
  }

 private:
  void Loop() {
    querc::util::ThreadPool::TaskOptions options;
    options.lane = querc::util::Lane::kInteractive;
    while (!stop_.load()) {
      const Clock::time_point submit = Clock::now();
      const uint64_t id = spans_.NewId();
      outstanding_.fetch_add(1);
      pool_.Submit(options, [this, submit, id] {
        const Clock::time_point start = Clock::now();
        spans_.Record(id, parent_, id, "probe_task", submit, start);
        {
          std::lock_guard<std::mutex> lock(mu_);
          waits_ms_.push_back(Ms(start - submit));
        }
        outstanding_.fetch_sub(1);
      });
      std::this_thread::sleep_until(submit + kProbePeriod);
    }
  }

  querc::util::ThreadPool& pool_;
  SpanRecorder& spans_;
  const uint64_t parent_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> outstanding_{0};
  std::mutex mu_;
  std::vector<double> waits_ms_;
  std::thread thread_;  // last: starts after the members it uses
};

// ---------------------------------------------------------------------------
// retrain_under_load: a fixed number of TrainAndDeploy cycles back to back
// on a thread of their own. The phase beside them lasts exactly as long,
// so every phase sees each stage of a cycle (the parallel EmbedBatch, the
// forest fits, the deploy) in the same proportion.

class RetrainCycles {
 public:
  RetrainCycles(Service& service, SpanRecorder& spans, uint64_t parent,
                size_t cycles)
      : service_(service), spans_(spans), parent_(parent),
        thread_([this, cycles] { Loop(cycles); }) {}

  RetrainCycles(const RetrainCycles&) = delete;
  RetrainCycles& operator=(const RetrainCycles&) = delete;

  ~RetrainCycles() {
    if (thread_.joinable()) thread_.join();
  }

  bool done() const { return done_.load(); }

  /// Waits for the cycles; returns each one's wall time.
  std::vector<double> Join() {
    if (thread_.joinable()) thread_.join();
    return cycles_s_;
  }

  /// First failed cycle's status (OK if none failed); read after Join.
  const querc::util::Status& status() const { return status_; }

 private:
  void Loop(size_t cycles) {
    for (size_t i = 0; i < cycles; ++i) {
      const uint64_t id = spans_.NewId();
      const Clock::time_point start = Clock::now();
      querc::util::Status status = service_.TrainAndDeploy();
      const Clock::time_point end = Clock::now();
      spans_.Record(id, parent_, id, "TrainAndDeploy", start, end);
      cycles_s_.push_back(std::chrono::duration<double>(end - start).count());
      if (!status.ok() && status_.ok()) status_ = status;
    }
    done_.store(true);
  }

  Service& service_;
  SpanRecorder& spans_;
  const uint64_t parent_;
  std::atomic<bool> done_{false};
  std::vector<double> cycles_s_;  // written by the thread, read after join
  querc::util::Status status_;
  std::thread thread_;  // last: starts after the members it uses
};

// ---------------------------------------------------------------------------

/// Everything recorded about one phase.
struct Phase {
  std::string name;
  size_t round = 0;
  bool open_loop = false;
  double offered_qps = 0.0;
  size_t stream_start = 0;  // stream position of its first query
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Dispatch> dispatches;
  OpenLoopResult open;      // open-loop phases
  double wall_s = 0.0;
  Snapshot before;
  Snapshot after;
  std::vector<double> queue_wait_ms;  // traced runs
};

/// Queries served cleanly per second of the phase.
double PhaseQps(const Phase& p) {
  return p.wall_s > 0.0 ? static_cast<double>(p.attempted - p.failed) /
                              p.wall_s
                        : 0.0;
}

/// Closed-loop throughput of each of kWindowsPerPhase consecutive groups
/// of calls: the group's queries, scaled by the phase's clean share, over
/// the time from the previous group's last return (for the first group,
/// its first call) to its own last return.
std::vector<double> WindowQps(const Phase& p) {
  std::vector<double> qps;
  const size_t n = p.dispatches.size();
  if (n == 0 || p.attempted == 0) return qps;
  const double clean_share = static_cast<double>(p.attempted - p.failed) /
                             static_cast<double>(p.attempted);
  const size_t windows = std::min(kWindowsPerPhase, n);
  Clock::time_point from = p.dispatches.front().stamps.call;
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = n * w / windows;
    const size_t end = n * (w + 1) / windows;
    size_t queries = 0;
    for (size_t i = begin; i < end; ++i) queries += p.dispatches[i].count;
    const Clock::time_point to = p.dispatches[end - 1].stamps.ret;
    const double seconds = std::chrono::duration<double>(to - from).count();
    if (seconds > 0.0) {
      qps.push_back(clean_share * static_cast<double>(queries) / seconds);
    }
    from = to;
  }
  return qps;
}

class Runner {
 public:
  explicit Runner(const Config& config)
      : config_(config), spans_(config.trace) {}

  int Run();

 private:
  /// Builds a fresh service and warms it up: one timed set-up.
  bool SetUp(size_t round);
  /// The measured phases of one round on the current service.
  void RunRound(size_t round);
  const Phase& LastPhase(const std::string& name) const;
  std::vector<const Phase*> PhasesNamed(const std::string& name) const;
  /// Closed-loop warm-up windows: kWarmupWindows of them, then more until
  /// throughput settles. Returns the windows' throughputs; sets
  /// `*fixed_s` to `timer`'s reading after the fixed windows, where set-up
  /// ends.
  std::vector<double> WarmUp(Service& service, const Workload& stream,
                             const querc::util::Stopwatch& timer,
                             double* fixed_s);
  ServeFn MakeServe(Service& service, const Workload& stream, Phase* phase,
                    uint64_t parent);
  /// Runs `body` as one measured phase: snapshots around it, a span, and
  /// in traced runs the queue-wait probe. `body` gets the serve function
  /// and the phase span's id.
  void RunPhase(Phase* phase,
                const std::function<void(const ServeFn&, uint64_t)>& body);
  void Fail(const std::string& why);
  /// The seed of round `round`'s workload.
  uint64_t RoundSeed(size_t round) const {
    return DeriveSeed(config_.seed, kRoundInputs + kRoundStride * round);
  }

  Json PerLayer(Json* detail);
  Json PhaseJson(const Phase& phase) const;
  void WriteFile(const std::string& name, const std::string& text) const;

  const Config config_;
  SpanRecorder spans_;
  // The current round's workload, its reference outputs and its service.
  std::unique_ptr<Inputs> inputs_;
  std::unique_ptr<Service> service_;
  std::unique_ptr<Reference> reference_;
  std::vector<double> label_accuracy_;  // per round
  std::vector<double> setup_s_;
  std::vector<double> setup_train_deploy_s_;
  std::vector<double> warmup_windows_;
  std::vector<double> retrain_cycles_s_;
  std::vector<Phase> phases_;
  size_t cursor_ = 0;  // next stream position to serve
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<std::string> failures_;  // first few reasons
};

void Runner::Fail(const std::string& why) {
  if (failures_.size() < 8) failures_.push_back(why);
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
}

ServeFn Runner::MakeServe(Service& service, const Workload& stream,
                          Phase* phase, uint64_t parent) {
  return [this, &service, &stream, phase, parent](size_t count,
                                                  CallStamps* stamps) {
    const size_t n = stream.size();
    const size_t first = cursor_;
    std::vector<LabeledQuery> queries;
    queries.reserve(count);
    for (size_t k = 0; k < count; ++k) {
      queries.push_back(stream[(first + k) % n]);
    }
    const Workload batch(std::move(queries));
    const uint64_t id = spans_.enabled() ? spans_.NewId() : 0;
    stamps->call = Clock::now();
    std::vector<core::ProcessedQuery> out = service.pool().ProcessBatch(batch);
    stamps->ret = Clock::now();
    spans_.Record(id, parent, id, "ProcessBatch", stamps->call, stamps->ret);
    for (size_t k = 0; k < count; ++k) {
      std::string why = reference_->Check(out[k], (first + k) % n);
      if (!why.empty()) {
        ++phase->failed;
        Fail(phase->name + ": stream position " +
             std::to_string((first + k) % n) + ": " + why);
      }
    }
    phase->attempted += count;
    cursor_ = (first + count) % n;
  };
}

std::vector<double> Runner::WarmUp(Service& service, const Workload& stream,
                                   const querc::util::Stopwatch& timer,
                                   double* fixed_s) {
  Phase warmup;
  warmup.name = "warmup";
  ServeFn serve = MakeServe(service, stream, &warmup, 0);
  std::vector<double> qps;
  auto settled = [&qps] {
    if (qps.size() < kSettleWindows) return false;
    auto [lo, hi] = std::minmax_element(qps.end() - kSettleWindows, qps.end());
    return *hi <= kSettleRatio * *lo;
  };
  while (qps.size() < kMaxWarmupWindows &&
         (qps.size() < kWarmupWindows || !settled())) {
    querc::util::Stopwatch window;
    CallStamps stamps;
    for (size_t done = 0; done < kWarmupWindow; done += kBatchSize) {
      serve(kBatchSize, &stamps);
    }
    qps.push_back(static_cast<double>(kWarmupWindow) /
                  window.ElapsedSeconds());
    if (qps.size() == kWarmupWindows) *fixed_s = timer.ElapsedSeconds();
  }
  attempted_ += warmup.attempted;
  failed_ += warmup.failed;
  return qps;
}

bool Runner::SetUp(size_t round) {
  service_.reset();
  cursor_ = 0;
  querc::util::Stopwatch timer;
  Inputs inputs = MakeInputs(config_.spec, RoundSeed(round));
  Service::BuildTimes times;
  auto built = Service::Build(inputs, &times);
  if (!built.ok()) {
    Fail("set-up failed: " + built.status().ToString());
    return false;
  }
  service_ = std::move(built).value();
  const double build_s = timer.ElapsedSeconds();
  double fixed_s = 0.0;
  std::vector<double> warmup_qps =
      WarmUp(*service_, inputs_->stream, timer, &fixed_s);
  setup_s_.push_back(fixed_s);
  setup_train_deploy_s_.push_back(times.train_and_deploy_s);
  warmup_windows_.push_back(warmup_qps.size());
  std::fprintf(stderr,
               "perfbench: round %zu set-up %.2f s (embedder %.2f s, "
               "TrainAndDeploy %.2f s, warm-up %zu windows in %.2f s, then "
               "%zu more until settled)\n",
               round, setup_s_.back(), times.embedder_s,
               times.train_and_deploy_s, kWarmupWindows, fixed_s - build_s,
               warmup_qps.size() - kWarmupWindows);
  if (inputs.stream.size() != inputs_->stream.size() ||
      !std::equal(inputs.stream.begin(), inputs.stream.end(),
                  inputs_->stream.begin(),
                  [](const LabeledQuery& a, const LabeledQuery& b) {
                    return a.text == b.text && a.user == b.user;
                  })) {
    Fail("the same seed generated a different stream");
    return false;
  }
  return true;
}

void Runner::RunPhase(
    Phase* phase, const std::function<void(const ServeFn&, uint64_t)>& body) {
  const uint64_t id = spans_.enabled() ? spans_.NewId() : 0;
  phase->stream_start = cursor_;
  phase->before = Take(service_->pool());
  std::unique_ptr<QueueWaitProbe> probe;
  if (spans_.enabled()) {
    probe = std::make_unique<QueueWaitProbe>(service_->thread_pool(), spans_,
                                             id);
  }
  const Clock::time_point start = Clock::now();
  body(MakeServe(*service_, inputs_->stream, phase, id), id);
  const Clock::time_point end = Clock::now();
  if (probe) phase->queue_wait_ms = probe->Stop();
  phase->after = Take(service_->pool());
  spans_.Record(id, 0, id, "phase:" + phase->name, start, end);
  attempted_ += phase->attempted;
  failed_ += phase->failed;
}

void Runner::RunRound(size_t round) {
  const double closed_s = 0.4 * config_.seconds / kRounds;
  const double open_s = 0.3 * config_.seconds / kRounds;
  const double overhead_s = closed_s / (2 * kOverheadPairs);
  // On retrain_under_load a phase lasts whole retrain cycles, as many as
  // come closest to its share of --seconds (a cycle as long as the last
  // set-up's).
  const double cycle_s = setup_train_deploy_s_.back();
  auto cycles_for = [&](double seconds) {
    return std::max<size_t>(1, static_cast<size_t>(seconds / cycle_s + 0.5));
  };

  // `loop` runs the phase's load until the DoneFn it gets says so.
  auto run = [&](Phase phase, double seconds, bool retrain, auto&& loop) {
    phase.round = round;
    RunPhase(&phase, [&](const ServeFn& serve, uint64_t parent) {
      if (!retrain) {
        // An open loop ends with its schedule, backlog included.
        loop(phase, serve,
             phase.open_loop ? DoneFn([] { return false; }) : After(seconds));
        return;
      }
      RetrainCycles cycles(*service_, spans_, parent, cycles_for(seconds));
      loop(phase, serve, [&cycles] { return cycles.done(); });
      std::vector<double> times = cycles.Join();
      retrain_cycles_s_.insert(retrain_cycles_s_.end(), times.begin(),
                               times.end());
      if (!cycles.status().ok()) {
        ++failed_;
        Fail("retrain cycle failed: " + cycles.status().ToString());
      }
    });
    return phase;
  };
  auto closed = [&](const std::string& name, double seconds, bool retrain) {
    Phase phase;
    phase.name = name;
    return run(std::move(phase), seconds, retrain,
               [](Phase& p, const ServeFn& serve, const DoneFn& done) {
                 ClosedLoopResult r = RunClosedLoop(kBatchSize, serve, done);
                 p.dispatches = std::move(r.dispatches);
                 p.wall_s = r.wall_s;
               });
  };
  auto open = [&](const std::string& name, double qps, uint64_t purpose) {
    Phase phase;
    phase.name = name;
    phase.open_loop = true;
    phase.offered_qps = qps;
    // Under retraining the phase ends with the cycles, so the schedule
    // gets ample room to outlast them.
    const double horizon_s =
        config_.spec.retrain()
            ? 3.0 * static_cast<double>(cycles_for(open_s)) * cycle_s
            : open_s;
    std::vector<double> schedule = PoissonSchedule(
        DeriveSeed(config_.seed, purpose + kRoundStride * round), qps,
        horizon_s);
    return run(std::move(phase), open_s, config_.spec.retrain(),
               [&schedule](Phase& p, const ServeFn& serve,
                           const DoneFn& done) {
                 p.open = RunOpenLoop(schedule, serve, done);
                 p.dispatches = p.open.dispatches;
                 p.wall_s = p.open.wall_s;
               });
  };

  // Traced runs measure the tracing overhead in the last round: short
  // closed-loop segments alternately without and with spans and probes,
  // adjacent in the stream so the workload under both is alike.
  if (config_.trace && round + 1 == kRounds) {
    for (size_t i = 0; i < kOverheadPairs; ++i) {
      spans_.set_enabled(false);
      phases_.push_back(closed("overhead_untraced", overhead_s, false));
      spans_.set_enabled(true);
      phases_.push_back(closed("overhead_traced", overhead_s, false));
    }
  }
  phases_.push_back(closed("closed", closed_s, config_.spec.retrain()));
  phases_.push_back(open("light", config_.light_qps, kLightSchedule));
  phases_.push_back(open("heavy", config_.heavy_qps, kHeavySchedule));
}

const Phase& Runner::LastPhase(const std::string& name) const {
  for (auto it = phases_.rbegin(); it != phases_.rend(); ++it) {
    if (it->name == name) return *it;
  }
  return phases_.back();
}

std::vector<const Phase*> Runner::PhasesNamed(const std::string& name) const {
  std::vector<const Phase*> out;
  for (const Phase& p : phases_) {
    if (p.name == name) out.push_back(&p);
  }
  return out;
}

int Runner::Run() {
  const WorkloadSpec& spec = config_.spec;
  for (size_t round = 0; round < kRounds; ++round) {
    // The round's reference lint comes from an untimed generation; the
    // timed set-up regenerates its own inputs and must get the same ones.
    service_.reset();
    reference_.reset();
    inputs_ = std::make_unique<Inputs>(MakeInputs(spec, RoundSeed(round)));
    {
      querc::util::ThreadPool pool(querc::util::ThreadPool::Options{});
      reference_ = std::make_unique<Reference>(
          Reference::ForStream(inputs_->stream, pool));
    }
    if (!SetUp(round)) return 1;
    // Predictions of the classifiers as first deployed: on
    // retrain_under_load every retrained model must reproduce them.
    reference_->AddPredictions(
        service_->Deployed(), kCheckSampleSize,
        DeriveSeed(config_.seed, kCheckSample + kRoundStride * round),
        service_->thread_pool());
    label_accuracy_.push_back(reference_->label_accuracy());
    RunRound(round);
  }

  Json detail = Json::Object()
                    .Set("workload", spec.name)
                    .Set("seed", config_.seed)
                    .Set("trace", config_.trace)
                    .Set("seconds", config_.seconds)
                    .Set("rounds", kRounds)
                    .Set("stream_queries", inputs_->stream.size())
                    .Set("history_queries", inputs_->history.size())
                    .Set("check_sample", reference_->sample_size())
                    .Set("label_accuracy", ArrayJson(label_accuracy_))
                    .Set("setup_s", ArrayJson(setup_s_))
                    .Set("warmup_windows", ArrayJson(warmup_windows_))
                    .Set("retrain_cycles_s", ArrayJson(retrain_cycles_s_));
  Json phases_json = Json::Array();
  for (const Phase& p : phases_) phases_json.Push(PhaseJson(p));
  detail.Set("phases", std::move(phases_json));

  Json metrics = Json::Object();
  auto metric = [&metrics](const std::string& name, double value,
                           const std::string& unit) {
    metrics.Set(name, Json::Object().Set("value", value).Set("unit", unit));
  };
  if (!config_.trace) {
    // The better quartile over the windows of every round, each round on
    // a freshly built service (see kWindowsPerPhase). An overloaded open
    // loop measures its own length, not the service, so its windows are
    // left out unless every round's phase is overloaded; then the metric
    // reports the backlog, and shows as a regression.
    auto over_windows = [&](const std::string& name, double q) {
      std::vector<const Phase*> phases = PhasesNamed(name);
      std::vector<const Phase*> valid;
      for (const Phase* p : phases) {
        if (!p->open.overloaded) valid.push_back(p);
      }
      if (!valid.empty()) phases = valid;
      std::vector<double> values;
      for (const Phase* p : phases) {
        std::vector<double> w =
            p->open_loop
                ? WindowQuantiles(p->open.response_ms, q, kWindowsPerPhase)
                : WindowQps(*p);
        values.insert(values.end(), w.begin(), w.end());
      }
      return Percentile(values, name == "closed" ? 0.75 : 0.25);
    };
    for (const Phase& p : phases_) {
      if (p.open.overloaded) {
        std::fprintf(stderr,
                     "perfbench: round %zu %s is overloaded (backlog grew "
                     "across the phase); its percentiles measure the phase "
                     "length and are left out of the metrics unless every "
                     "round's %s is\n",
                     p.round, p.name.c_str(), p.name.c_str());
      }
    }
    metric("setup_s", Median(setup_s_), "s");
    metric("peak_rss_mb", PeakRssMb(), "MB");
    metric("throughput_qps", over_windows("closed", 0.0), "1/s");
    metric("light.response_p50_ms", over_windows("light", 0.5), "ms");
    metric("heavy.response_p50_ms", over_windows("heavy", 0.5), "ms");
    metric("served_frac",
           attempted_ == 0 ? 0.0
                           : static_cast<double>(attempted_ - failed_) /
                                 static_cast<double>(attempted_),
           "ratio");
    metric("label_accuracy", MeanOf(label_accuracy_), "ratio");
    // Reported in the run file but not gated: on a shared virtual machine
    // they swing with the host's steal time far beyond any bound (see
    // README.md).
    auto phase_p99 = [&](const std::string& name) {
      std::vector<double> values;
      for (const Phase* p : PhasesNamed(name)) {
        if (Summarize(p->open.response_ms).p99_supported()) {
          values.push_back(Percentile(p->open.response_ms, 0.99));
        }
      }
      return values.empty() ? Json() : Json(Median(values));
    };
    detail.Set("ungated",
               Json::Object()
                   .Set("light.response_p90_ms", over_windows("light", 0.9))
                   .Set("heavy.response_p90_ms", over_windows("heavy", 0.9))
                   .Set("light.response_p99_ms", phase_p99("light"))
                   .Set("heavy.response_p99_ms", phase_p99("heavy"))
                   .Set("retrain_s",
                        Median(spec.retrain() ? retrain_cycles_s_
                                            : setup_train_deploy_s_)));
  } else {
    metrics = PerLayer(&detail);
  }
  detail.Set("attempted", attempted_).Set("failed", failed_);
  Json failures = Json::Array();
  for (const std::string& f : failures_) failures.Push(f);
  detail.Set("failures", std::move(failures));

  const std::string stem = spec.name + "_seed" +
                           std::to_string(config_.seed) + "_trace" +
                           (config_.trace ? "1" : "0");
  WriteFile("run_" + stem + ".json", detail.Dump() + "\n");
  if (config_.trace) {
    std::ostringstream spans;
    spans_.WriteJson(spans);
    WriteFile("spans_" + stem + ".json", spans.str());
  }

  for (const Phase& p : phases_) {
    std::fprintf(stderr, "perfbench: round %zu %-15s %8zu queries %6.2f s %s%s\n",
                 p.round, p.name.c_str(), p.attempted, p.wall_s,
                 p.open_loop ? "open loop" : "closed loop",
                 p.open.overloaded ? " OVERLOADED" : "");
  }
  const bool correct = failed_ == 0 && failures_.empty();
  Json line = Json::Object()
                  .Set("correct", correct)
                  .Set("attempted", attempted_)
                  .Set("failed", failed_)
                  .Set("metrics", std::move(metrics));
  std::printf("%s\n", line.Dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

Json Runner::PhaseJson(const Phase& p) const {
  Json j = Json::Object()
               .Set("name", p.name)
               .Set("round", p.round)
               .Set("loop", p.open_loop ? "open" : "closed")
               .Set("attempted", p.attempted)
               .Set("failed", p.failed)
               .Set("wall_s", p.wall_s)
               .Set("dispatches", p.dispatches.size());
  if (p.open_loop) {
    std::vector<double> batch_sizes;
    for (const Dispatch& d : p.dispatches) {
      batch_sizes.push_back(static_cast<double>(d.count));
    }
    j.Set("offered_qps", p.offered_qps)
        .Set("overloaded", p.open.overloaded)
        .Set("response", SummaryJson(p.open.response_ms))
        .Set("window_response_p50_ms",
             ArrayJson(WindowQuantiles(p.open.response_ms, 0.5,
                                       kWindowsPerPhase)))
        .Set("window_response_p90_ms",
             ArrayJson(WindowQuantiles(p.open.response_ms, 0.9,
                                       kWindowsPerPhase)))
        .Set("dispatch_wait", SummaryJson(p.open.dispatch_wait_ms))
        .Set("batch_size_mean", MeanOf(batch_sizes));
  } else {
    j.Set("completed_qps", PhaseQps(p))
        .Set("window_qps", ArrayJson(WindowQps(p)));
  }
  std::vector<double> batch_ms;
  for (const Dispatch& d : p.dispatches) {
    batch_ms.push_back(Ms(d.stamps.ret - d.stamps.call));
  }
  j.Set("batch", SummaryJson(batch_ms));
  j.Set("service", HistogramJson(Delta(p.after.service, p.before.service)));
  const querc::embed::EmbedCacheStats cache = CacheDelta(p.after, p.before);
  j.Set("embed_cache", Json::Object()
                           .Set("lookups", cache.lookups())
                           .Set("hits", cache.hits)
                           .Set("misses", cache.misses)
                           .Set("evictions", cache.evictions)
                           .Set("hit_ratio", cache.hit_ratio()));
  Json shards = Json::Array();
  for (size_t s = 0; s < p.after.shard_processed.size(); ++s) {
    shards.Push(p.after.shard_processed[s] - p.before.shard_processed[s]);
  }
  j.Set("shard_processed", std::move(shards));
  j.Set("shed", p.after.shed - p.before.shed);
  if (!p.queue_wait_ms.empty()) {
    j.Set("queue_wait", SummaryJson(p.queue_wait_ms));
  }
  return j;
}

Json Runner::PerLayer(Json* detail) {
  // The last round's phases, on the service that is still up.
  const Phase& closed = LastPhase("closed");
  const Phase& light = LastPhase("light");
  const Phase& heavy = LastPhase("heavy");
  const Workload& stream = inputs_->stream;
  core::QWorkerPool& pool = service_->pool();
  const std::vector<std::shared_ptr<const core::Classifier>> classifiers =
      service_->Deployed();
  const querc::embed::Embedder& embedder = *service_->embedder();
  const querc::sql::lint::LintEngine lint_engine;

  // Replays on the generator thread: each phase's first kReplayQueries
  // queries once through each layer's public entry point, one span per
  // call under a "replay:<phase>" span.
  struct Replay {
    double lex_us = 0.0, tokenize_us = 0.0, lint_us = 0.0, lookup_us = 0.0;
    double infer_us = 0.0, predict_us = 0.0, admission_us = 0.0;
  };
  auto replay = [&](const Phase& phase) {
    Replay r;
    const uint64_t parent = spans_.NewId();
    const Clock::time_point replay_start = Clock::now();
    std::vector<const LabeledQuery*> queries;
    for (size_t k = 0; k < std::min(kReplayQueries, phase.attempted); ++k) {
      queries.push_back(&stream[(phase.stream_start + k) % stream.size()]);
    }
    auto timed = [&](const char* name, size_t calls, auto&& call) {
      double total_us = 0.0;
      for (size_t i = 0; i < calls; ++i) {
        const uint64_t id = spans_.NewId();
        const Clock::time_point t0 = Clock::now();
        call(i);
        const Clock::time_point t1 = Clock::now();
        spans_.Record(id, parent, parent, name, t0, t1);
        total_us += Ms(t1 - t0) * 1e3;
      }
      return calls == 0 ? 0.0 : total_us / static_cast<double>(calls);
    };
    const size_t n = queries.size();
    r.lex_us = timed("replay.sql.lex", n, [&](size_t i) {
      querc::sql::LexOptions options;
      options.dialect = queries[i]->dialect;
      auto tokens = querc::sql::LexLenient(queries[i]->text, options);
      KeepAlive(tokens.size());
    });
    std::vector<std::vector<std::string>> words(n);
    r.tokenize_us = timed("replay.embed.tokenize", n, [&](size_t i) {
      words[i] = querc::embed::TokenizeForEmbedding(queries[i]->text,
                                                    queries[i]->dialect);
    });
    r.lint_us = timed("replay.sql.lint", n, [&](size_t i) {
      auto lint = lint_engine.LintQuery(queries[i]->text, 0,
                                        queries[i]->dialect);
      KeepAlive(lint.diagnostics.size());
    });
    const size_t infer_n = std::min(kReplayInfer, n);
    std::vector<querc::nn::Vec> vectors(infer_n);
    r.infer_us = timed("replay.embed.infer", infer_n, [&](size_t i) {
      vectors[i] = embedder.Embed(words[i]);
    });
    // A benchmark-owned cache with the pool's per-shard configuration,
    // filled with the replayed keys, then looked up: the resident path.
    querc::embed::EmbeddingCache cache({});
    for (size_t i = 0; i < infer_n; ++i) {
      cache.GetOrCompute(querc::embed::EmbeddingCache::KeyFor(embedder,
                                                              words[i]),
                         [&] { return vectors[i]; });
    }
    r.lookup_us = timed("replay.embed.lookup", infer_n, [&](size_t i) {
      auto v = cache.GetOrCompute(
          querc::embed::EmbeddingCache::KeyFor(embedder, words[i]),
          [&] { return vectors[i]; });
      KeepAlive(reinterpret_cast<uintptr_t>(v.get()));
    });
    const size_t tasks = classifiers.size();
    r.predict_us = timed("replay.ml.predict", infer_n * tasks, [&](size_t i) {
      auto label = classifiers[i % tasks]->PredictFromEmbedding(
          vectors[i / tasks]);
      KeepAlive(label.size());
    });
    // Admission: the phase's own batches through a fresh controller with
    // the pool's options — AdmitBatch, then the per-account Release the
    // pool does after the fan-out.
    core::TenantAdmissionOptions admission = Service::PoolOptions().admission;
    admission.policy_label = "reject_new";
    core::TenantAdmissionController controller(admission);
    double admission_us = 0.0;
    size_t admitted = 0;
    for (const Dispatch& d : phase.dispatches) {
      std::vector<LabeledQuery> batch_queries;
      for (size_t k = 0; k < d.count; ++k) {
        batch_queries.push_back(
            stream[(phase.stream_start + d.first + k) % stream.size()]);
      }
      const Workload batch(std::move(batch_queries));
      const uint64_t id = spans_.NewId();
      const Clock::time_point t0 = Clock::now();
      std::vector<core::AdmitDecision> decisions =
          controller.AdmitBatch(batch, kMaxInFlight);
      std::map<std::string, size_t> per_account;
      for (size_t k = 0; k < batch.size(); ++k) {
        if (decisions[k].admitted) ++per_account[batch[k].account];
      }
      for (const auto& [account, count] : per_account) {
        controller.Release(account, count);
      }
      const Clock::time_point t1 = Clock::now();
      spans_.Record(id, parent, parent, "replay.querc.admission", t0, t1);
      admission_us += Ms(t1 - t0) * 1e3;
      admitted += d.count;
      if (admitted >= 4 * kReplayQueries) break;
    }
    r.admission_us =
        admitted == 0 ? 0.0 : admission_us / static_cast<double>(admitted);
    spans_.Record(parent, 0, parent, "replay:" + phase.name, replay_start,
                  Clock::now());
    return r;
  };

  // Residual of each call's time after admission and the critical shard's
  // work (its queries x that shard's mean service time in the phase),
  // averaged per query. The caller runs shards itself when no worker is
  // free, so the probed queue wait is not added; what a batch loses to
  // waiting for helpers, or to running its shards one after another,
  // stays in the residual.
  auto unattributed_ms = [&](const Phase& phase, const Replay& r) {
    std::vector<double> shard_mean;
    for (size_t s = 0; s < phase.after.shard_service.size(); ++s) {
      shard_mean.push_back(
          Delta(phase.after.shard_service[s], phase.before.shard_service[s])
              .mean());
    }
    double weighted = 0.0;
    size_t queries = 0;
    for (const Dispatch& d : phase.dispatches) {
      std::vector<size_t> per_shard(shard_mean.size(), 0);
      for (size_t k = 0; k < d.count; ++k) {
        ++per_shard[pool.ShardOf(
            stream[(phase.stream_start + d.first + k) % stream.size()])];
      }
      double critical = 0.0;
      for (size_t s = 0; s < per_shard.size(); ++s) {
        critical = std::max(critical,
                            static_cast<double>(per_shard[s]) * shard_mean[s]);
      }
      const double attributed =
          r.admission_us * static_cast<double>(d.count) / 1e3 + critical;
      weighted += (Ms(d.stamps.ret - d.stamps.call) - attributed) *
                  static_cast<double>(d.count);
      queries += d.count;
    }
    return queries == 0 ? 0.0 : weighted / static_cast<double>(queries);
  };

  // Per phase: stage histograms, replays, the residual, and each
  // replayed stage's per-query cost as a share of the service time.
  Json layers = Json::Object();
  std::map<std::string, Replay> replays;
  std::map<std::string, double> residuals;
  for (const Phase* phase : {&closed, &light, &heavy}) {
    Replay r = replay(*phase);
    replays[phase->name] = r;
    residuals[phase->name] = unattributed_ms(*phase, r);
    Json stages = Json::Object();
    for (const auto& [stage, after] : phase->after.stages) {
      auto it = phase->before.stages.find(stage);
      stages.Set(stage, HistogramJson(it == phase->before.stages.end()
                                          ? after
                                          : Delta(after, it->second)));
    }
    const obs::HistogramSnapshot service =
        Delta(phase->after.service, phase->before.service);
    const double misses = static_cast<double>(phase->after.cache.misses -
                                              phase->before.cache.misses);
    const double served = static_cast<double>(service.count);
    const double service_us = service.sum * 1e3;
    auto share = [&](double per_query_us, double calls) {
      return service_us <= 0.0 ? 0.0 : per_query_us * calls / service_us;
    };
    const double tasks = static_cast<double>(classifiers.size());
    layers.Set(
        phase->name,
        Json::Object()
            .Set("stages_ms", std::move(stages))
            .Set("replay_us", Json::Object()
                                  .Set("sql.lex", r.lex_us)
                                  .Set("embed.tokenize", r.tokenize_us)
                                  .Set("sql.lint", r.lint_us)
                                  .Set("embed.lookup", r.lookup_us)
                                  .Set("embed.infer", r.infer_us)
                                  .Set("ml.predict", r.predict_us)
                                  .Set("querc.admission", r.admission_us))
            // Replayed cost per served query: infer only on misses,
            // predict once per task.
            .Set("per_query_us",
                 Json::Object()
                     .Set("embed.tokenize", r.tokenize_us)
                     .Set("sql.lint", r.lint_us)
                     .Set("embed.lookup", r.lookup_us)
                     .Set("embed.infer",
                          served == 0 ? 0.0 : r.infer_us * misses / served)
                     .Set("ml.predict", r.predict_us * tasks)
                     .Set("querc.admission", r.admission_us))
            .Set("share_of_service",
                 Json::Object()
                     .Set("embed.tokenize", share(r.tokenize_us, served))
                     .Set("sql.lint", share(r.lint_us, served))
                     .Set("embed.lookup", share(r.lookup_us, served))
                     .Set("embed.infer (misses x infer_us)",
                          share(r.infer_us, misses))
                     .Set("ml.predict", share(r.predict_us, served * tasks)))
            .Set("unattributed_ms", residuals[phase->name]));
  }

  // Training side, on the shared pool's batch lane (as TrainAndDeploy
  // runs it): EmbedBatch over the history, then each labeler's Train
  // minus its tokenize and EmbedBatch shares.
  const Workload& history = inputs_->history;
  querc::util::ThreadPool& thread_pool = service_->thread_pool();
  Clock::time_point t0 = Clock::now();
  const std::vector<std::vector<std::string>> docs =
      querc::embed::TokenizeWorkload(history);
  const double tokenize_ms = Ms(Clock::now() - t0);
  t0 = Clock::now();
  const std::vector<querc::nn::Vec> embedded =
      embedder.EmbedBatch(docs, &thread_pool);
  const double embed_batch_ms = Ms(Clock::now() - t0);
  spans_.Record(spans_.NewId(), 0, 0, "replay.embed.batch", t0, Clock::now());
  std::vector<double> fit_ms;
  for (const auto& deployed : classifiers) {
    const std::string& task = deployed->task_name();
    core::Classifier fresh(task, service_->embedder(),
                           std::make_unique<querc::ml::RandomForestClassifier>(
                               querc::ml::RandomForestClassifier::Options{}));
    t0 = Clock::now();
    querc::util::Status status = fresh.Train(
        history,
        task == "account" ? querc::workload::AccountOf
                          : querc::workload::UserOf,
        &thread_pool);
    const Clock::time_point t1 = Clock::now();
    spans_.Record(spans_.NewId(), 0, 0, "replay.ml.train", t0, t1);
    if (!status.ok()) Fail("replayed Train failed: " + status.ToString());
    fit_ms.push_back(Ms(t1 - t0) - tokenize_ms - embed_batch_ms);
  }

  // Training histograms: over the measured phases when retraining runs
  // under load, otherwise over every set-up's TrainAndDeploy.
  const Snapshot& train_from =
      config_.spec.retrain() ? closed.before : Snapshot{};
  const obs::HistogramSnapshot train =
      Delta(heavy.after.train_ms, train_from.train_ms);
  const obs::HistogramSnapshot deploy =
      Delta(heavy.after.deploy_ms, train_from.deploy_ms);

  const querc::embed::EmbedCacheStats cache =
      CacheDelta(heavy.after, closed.before);

  std::vector<double> closed_shards;
  for (size_t s = 0; s < closed.after.shard_processed.size(); ++s) {
    closed_shards.push_back(static_cast<double>(
        closed.after.shard_processed[s] - closed.before.shard_processed[s]));
  }
  const double shard_mean = MeanOf(closed_shards);
  const double shard_skew =
      shard_mean == 0.0
          ? 0.0
          : *std::max_element(closed_shards.begin(), closed_shards.end()) /
                shard_mean;

  auto qps = [&](const std::string& name) {
    double queries = 0.0;
    double seconds = 0.0;
    for (const Phase* p : PhasesNamed(name)) {
      queries += static_cast<double>(p->attempted - p->failed);
      seconds += p->wall_s;
    }
    return seconds > 0.0 ? queries / seconds : 0.0;
  };
  const double untraced_qps = qps("overhead_untraced");
  const double overhead =
      untraced_qps > 0.0 ? 1.0 - qps("overhead_traced") / untraced_qps : 0.0;

  std::vector<double> closed_batch_ms;
  for (const Dispatch& d : closed.dispatches) {
    closed_batch_ms.push_back(Ms(d.stamps.ret - d.stamps.call));
  }
  std::vector<double> heavy_sizes;
  for (const Dispatch& d : heavy.dispatches) {
    heavy_sizes.push_back(static_cast<double>(d.count));
  }
  const obs::HistogramSnapshot light_service =
      Delta(light.after.service, light.before.service);
  const Replay& hr = replays["heavy"];

  Json span_totals = Json::Object();
  for (const auto& [name, t] : spans_.Totals()) {
    span_totals.Set(name, Json::Object()
                              .Set("count", t.count)
                              .Set("total_ms", t.total_ms)
                              .Set("self_ms", t.self_ms));
  }
  detail->Set("layers", std::move(layers));
  detail->Set("span_totals", std::move(span_totals));
  detail->Set("training", Json::Object()
                              .Set("history_tokenize_ms", tokenize_ms)
                              .Set("embed_batch_ms", embed_batch_ms)
                              .Set("train_jobs", train.count)
                              .Set("deploys", deploy.count));

  Json m = Json::Object();
  auto metric = [&m](const std::string& name, double value,
                     const std::string& unit) {
    m.Set(name, Json::Object().Set("value", value).Set("unit", unit));
  };
  metric("util.queue_wait_p50_ms", Percentile(heavy.queue_wait_ms, 0.5), "ms");
  metric("util.queue_wait_p99_ms", Percentile(heavy.queue_wait_ms, 0.99),
         "ms");
  metric("querc.dispatch_wait_p50_ms",
         Percentile(heavy.open.dispatch_wait_ms, 0.5), "ms");
  metric("querc.dispatch_wait_p99_ms",
         Percentile(heavy.open.dispatch_wait_ms, 0.99), "ms");
  metric("querc.batch_ms_p50", Percentile(closed_batch_ms, 0.5), "ms");
  metric("querc.batch_ms_p99", Percentile(closed_batch_ms, 0.99), "ms");
  metric("querc.batch_size_mean", MeanOf(heavy_sizes), "count");
  metric("querc.service_p50_ms", light_service.p50(), "ms");
  metric("querc.service_p99_ms", light_service.p99(), "ms");
  metric("querc.shard_skew", shard_skew, "ratio");
  metric("querc.unattributed_ms", residuals["heavy"], "ms");
  metric("querc.admission_us", hr.admission_us, "us");
  metric("querc.train_ms", train.mean(), "ms");
  metric("querc.deploy_ms", deploy.mean(), "ms");
  metric("sql.lex_us", hr.lex_us, "us");
  metric("sql.tokenize_us", hr.tokenize_us, "us");
  metric("sql.lint_us", hr.lint_us, "us");
  metric("sql.lint_diagnostics",
         static_cast<double>(reference_->lint_diagnostics()), "count");
  metric("embed.hit_ratio", cache.hit_ratio(), "ratio");
  metric("embed.misses", static_cast<double>(cache.misses), "count");
  metric("embed.evictions", static_cast<double>(cache.evictions), "count");
  metric("embed.lookup_us", hr.lookup_us, "us");
  metric("embed.infer_us", hr.infer_us, "us");
  metric("embed.batch_ms", embed_batch_ms, "ms");
  metric("ml.predict_us", hr.predict_us, "us");
  metric("ml.fit_ms", MeanOf(fit_ms), "ms");
  metric("obs.trace_overhead_frac", overhead, "ratio");
  metric("obs.flightrec_dropped",
         static_cast<double>(heavy.after.flight.dropped -
                             closed.before.flight.dropped),
         "count");
  return m;
}

void Runner::WriteFile(const std::string& name, const std::string& text) const {
  std::ofstream out(config_.out_dir + "/" + name);
  out << text;
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s/%s\n",
                 config_.out_dir.c_str(), name.c_str());
  }
}

}  // namespace

int RunBenchmark(const Config& config) {
  Runner runner(config);
  return runner.Run();
}

}  // namespace perfbench
