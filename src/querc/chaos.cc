#include "querc/chaos.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "embed/feature_embedder.h"
#include "ml/knn.h"
#include "obs/flight_recorder.h"
#include "querc/classifier.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace querc::core {

namespace {

/// Percentile over a sample vector (nearest-rank); 0 when empty.
double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = std::min(std::max<size_t>(rank, 1), samples.size());
  return samples[rank - 1];
}

workload::LabeledQuery MakeQuery(util::Rng& rng, size_t i) {
  workload::LabeledQuery q;
  if (rng.Bernoulli(0.5)) {
    q.text = "SELECT a FROM t WHERE x = 1";
    q.user = "alice";
  } else {
    q.text = "SELECT b, c, d FROM u, v WHERE u.k = v.k";
    q.user = "bob";
  }
  q.account = "acct" + std::to_string(i % 8);
  return q;
}

std::shared_ptr<Classifier> TrainUserClassifier(const std::string& task) {
  auto embedder = std::make_shared<embed::FeatureEmbedder>(
      embed::FeatureEmbedder::Options{});
  auto classifier = std::make_shared<Classifier>(
      task, embedder,
      std::make_unique<ml::KnnClassifier>(ml::KnnClassifier::Options{.k = 1}));
  workload::Workload history;
  for (int i = 0; i < 8; ++i) {
    workload::LabeledQuery a;
    a.text = "SELECT a FROM t WHERE x = 1";
    a.user = "alice";
    history.Add(a);
    workload::LabeledQuery b;
    b.text = "SELECT b, c, d FROM u, v WHERE u.k = v.k";
    b.user = "bob";
    history.Add(b);
  }
  if (!classifier->Train(history, workload::UserOf).ok()) return nullptr;
  return classifier;
}

/// Folds one returned query into the report's accounting.
void Account(const ProcessedQuery& pq, ChaosReport* report) {
  ++report->returned;
  if (pq.shed) ++report->shed;
  if (!pq.database_status.ok() || !pq.training_status.ok()) {
    ++report->sink_errors;
  }
  if (pq.deadline_exceeded) ++report->deadline_exceeded;
  report->degraded += pq.degraded_tasks.size();
  report->skipped += pq.skipped_tasks.size();
}

bool AllBreakersClosed(const QWorkerPool& pool) {
  for (const auto& [name, state] : pool.BreakerStates()) {
    if (state != CircuitBreaker::State::kClosed) return false;
  }
  return true;
}

}  // namespace

std::string ChaosReport::ToJson() const {
  std::string out = "{\n";
  out += util::StrFormat("  \"submitted\": %zu,\n", submitted);
  out += util::StrFormat("  \"returned\": %zu,\n", returned);
  out += util::StrFormat("  \"silent_drops\": %zu,\n", silent_drops);
  out += util::StrFormat("  \"shed\": %zu,\n", shed);
  out += util::StrFormat("  \"shed_rate\": %.4f,\n", shed_rate);
  out += util::StrFormat("  \"sink_errors\": %zu,\n", sink_errors);
  out += util::StrFormat("  \"degraded\": %zu,\n", degraded);
  out += util::StrFormat("  \"skipped\": %zu,\n", skipped);
  out += util::StrFormat("  \"deadline_exceeded\": %zu,\n", deadline_exceeded);
  out += util::StrFormat("  \"breakers_tripped\": %zu,\n", breakers_tripped);
  out += util::StrFormat("  \"breakers_reclosed\": %s,\n",
                         breakers_reclosed ? "true" : "false");
  out += util::StrFormat("  \"recovery_ms\": %.3f,\n", recovery_ms);
  out += util::StrFormat("  \"p50_warmup_ms\": %.4f,\n", p50_warmup_ms);
  out += util::StrFormat("  \"p99_warmup_ms\": %.4f,\n", p99_warmup_ms);
  out += util::StrFormat("  \"p50_fault_ms\": %.4f,\n", p50_fault_ms);
  out += util::StrFormat("  \"p99_fault_ms\": %.4f,\n", p99_fault_ms);
  out += util::StrFormat("  \"p99_recovery_ms\": %.4f,\n", p99_recovery_ms);
  if (flightrec_enabled) {
    out += util::StrFormat("  \"journal_sink_failpoints\": %llu,\n",
                           (unsigned long long)journal_sink_failpoints);
    out += util::StrFormat("  \"journal_classifier_failpoints\": %llu,\n",
                           (unsigned long long)journal_classifier_failpoints);
    out += util::StrFormat("  \"journal_sheds\": %llu,\n",
                           (unsigned long long)journal_sheds);
    out += util::StrFormat("  \"journal_breaker_transitions\": %llu,\n",
                           (unsigned long long)journal_breaker_transitions);
    out += util::StrFormat("  \"failpoint_hits_sink\": %llu,\n",
                           (unsigned long long)failpoint_hits_sink);
    out += util::StrFormat("  \"failpoint_hits_classifier\": %llu,\n",
                           (unsigned long long)failpoint_hits_classifier);
    out += util::StrFormat("  \"flightrec_ok\": %s,\n",
                           flightrec_ok ? "true" : "false");
  }
  out += util::StrFormat("  \"ok\": %s\n", ok() ? "true" : "false");
  out += "}";
  return out;
}

std::string NoisyNeighborReport::ToJson() const {
  std::string out = "{\n";
  out += util::StrFormat("  \"submitted\": %zu,\n", submitted);
  out += util::StrFormat("  \"returned\": %zu,\n", returned);
  out += util::StrFormat("  \"silent_drops\": %zu,\n", silent_drops);
  out += util::StrFormat("  \"aggressor_submitted\": %zu,\n",
                         aggressor_submitted);
  out += util::StrFormat("  \"aggressor_shed\": %zu,\n", aggressor_shed);
  out += util::StrFormat("  \"victim_submitted\": %zu,\n", victim_submitted);
  out += util::StrFormat("  \"victim_shed\": %zu,\n", victim_shed);
  out += util::StrFormat("  \"aggressor_shed_rate\": %.4f,\n",
                         aggressor_shed_rate);
  out += util::StrFormat("  \"overload_fraction\": %.4f,\n",
                         overload_fraction);
  out += util::StrFormat("  \"shed_quota\": %llu,\n",
                         (unsigned long long)shed_quota);
  out += util::StrFormat("  \"shed_fairness\": %llu,\n",
                         (unsigned long long)shed_fairness);
  out += util::StrFormat("  \"shed_global\": %llu,\n",
                         (unsigned long long)shed_global);
  out += util::StrFormat("  \"victim_p99_warmup_ms\": %.4f,\n",
                         victim_p99_warmup_ms);
  out += util::StrFormat("  \"victim_p99_flood_ms\": %.4f,\n",
                         victim_p99_flood_ms);
  out += util::StrFormat("  \"victim_p99_bound_ms\": %.4f,\n",
                         victim_p99_bound_ms);
  out += util::StrFormat("  \"aggressor_breakers_tripped\": %zu,\n",
                         aggressor_breakers_tripped);
  out += util::StrFormat("  \"victim_breakers_tripped\": %zu,\n",
                         victim_breakers_tripped);
  out += util::StrFormat("  \"breakers_reclosed\": %s,\n",
                         breakers_reclosed ? "true" : "false");
  out += util::StrFormat("  \"recovery_rounds_used\": %zu,\n",
                         recovery_rounds_used);
  out += util::StrFormat("  \"tenant_breakers\": %zu,\n", tenant_breakers);
  out += util::StrFormat("  \"sheds_reconciled\": %s,\n",
                         sheds_reconciled ? "true" : "false");
  out += util::StrFormat("  \"ok\": %s\n", ok() ? "true" : "false");
  out += "}";
  return out;
}

NoisyNeighborReport RunNoisyNeighborDrill(
    const NoisyNeighborOptions& options) {
  NoisyNeighborReport report;
  util::Rng rng(options.seed);

  const std::string kAggressor = "aggressor";
  std::vector<std::string> victims;
  for (size_t v = 0; v < std::max<size_t>(1, options.num_victims); ++v) {
    victims.push_back("victim" + std::to_string(v));
  }

  // Shared fake clock: admission refill AND breaker cooldowns advance
  // only when the drill says so, making every shed and breaker walk
  // deterministic.
  auto now_us = std::make_shared<std::atomic<int64_t>>(int64_t{1});
  ClockFn clock = [now_us] {
    return now_us->load(std::memory_order_relaxed);
  };
  const double tokens_per_round =
      options.quota_rate_per_sec * options.round_us * 1e-6;
  const size_t aggressor_per_round = static_cast<size_t>(
      std::ceil(options.overload_factor * tokens_per_round));
  const size_t victim_inline = 1;  // latency-sampled Process per round
  const size_t victim_in_batch =
      options.victim_queries_per_round > victim_inline
          ? options.victim_queries_per_round - victim_inline
          : 0;

  // Journal evidence trail: drain leftovers from earlier work in this
  // process so per-account kShed counts are absolute for the drill.
  {
    std::vector<obs::FlightEvent> discard;
    obs::FlightRecorder::Global().Drain(&discard);
  }
  obs::TraceCollector::Options copts;
  copts.reservoir_capacity = 8;
  obs::TraceCollector collector(copts);

  QWorkerPool::Options pool_options;
  pool_options.application = "noisy";
  pool_options.num_shards = std::max<size_t>(1, options.num_shards);
  pool_options.partition = QWorkerPool::Partition::kRoundRobin;
  pool_options.max_in_flight = options.max_in_flight;
  pool_options.enable_tenant_admission = true;
  pool_options.admission.default_quota.burst = options.quota_burst;
  pool_options.admission.default_quota.rate_per_sec =
      options.quota_rate_per_sec;
  pool_options.admission.clock = clock;
  pool_options.worker.enable_lint = false;
  pool_options.worker.per_tenant_sink_breakers = true;
  pool_options.worker.breaker.window = 16;
  pool_options.worker.breaker.min_samples = 4;
  pool_options.worker.breaker.failure_ratio = 0.5;
  pool_options.worker.breaker.open_ms = options.breaker_open_ms;
  pool_options.worker.breaker.half_open_probes = 2;
  pool_options.worker.breaker.clock = clock;
  pool_options.worker.sink_retry.max_attempts = 2;
  pool_options.worker.sink_retry.initial_backoff_ms = 0.05;
  pool_options.worker.sink_retry.max_backoff_ms = 0.5;
  QWorkerPool pool(pool_options);

  auto primary = TrainUserClassifier("user");
  if (primary == nullptr) return report;
  pool.DeployAll({primary});

  // The aggressor's backend fails for the whole flood; victims' sink
  // calls always succeed. With per-tenant sink breakers only the
  // aggressor's breakers may trip — that asymmetry IS the isolation
  // being proven.
  std::atomic<bool> flood_active{false};
  pool.set_database_sink([&](const workload::LabeledQuery& q) {
    if (flood_active.load(std::memory_order_relaxed) &&
        q.account == "aggressor") {
      throw std::runtime_error("aggressor backend overloaded");
    }
  });

  // Counter baselines per (account, reason): the registry is process-
  // global, so reconciliation diffs against the drill's start.
  std::vector<std::string> accounts = victims;
  accounts.push_back(kAggressor);
  auto shed_counter = [](const std::string& account, ShedReason reason)
      -> obs::Counter& {
    return obs::MetricsRegistry::Global().GetCounter(
        "querc_shed_total", {{"account", account},
                             {"policy", "reject_new"},
                             {"reason", ShedReasonName(reason)}});
  };
  std::map<std::string, uint64_t> counter_base;
  for (const std::string& account : accounts) {
    counter_base[account] = shed_counter(account, ShedReason::kQuota).value() +
                            shed_counter(account, ShedReason::kFairness).value() +
                            shed_counter(account, ShedReason::kGlobal).value();
  }

  auto make_query = [&](const std::string& account) {
    workload::LabeledQuery q = MakeQuery(rng, 0);
    q.account = account;
    return q;
  };
  auto account_result = [&](const ProcessedQuery& pq) {
    ++report.returned;
    if (pq.query.account == kAggressor) {
      if (pq.shed) ++report.aggressor_shed;
    } else if (pq.shed) {
      ++report.victim_shed;
    }
    collector.Poll();
  };
  // One round of traffic: per victim, one latency-sampled inline
  // Process plus its batch share; the aggressor contributes
  // `aggressor_n` queries at the HEAD of the mixed batch (its sheds
  // must land mid-batch, in place, while later victim positions flow).
  auto run_round = [&](size_t aggressor_n, std::vector<double>* latencies) {
    now_us->fetch_add(static_cast<int64_t>(options.round_us),
                      std::memory_order_relaxed);
    for (const std::string& victim : victims) {
      workload::LabeledQuery q = make_query(victim);
      ++report.submitted;
      ++report.victim_submitted;
      util::Stopwatch sw;
      ProcessedQuery pq = pool.Process(q);
      if (latencies != nullptr) latencies->push_back(sw.ElapsedMillis());
      account_result(pq);
    }
    workload::Workload batch;
    for (size_t j = 0; j < aggressor_n; ++j) {
      batch.Add(make_query(kAggressor));
    }
    for (const std::string& victim : victims) {
      for (size_t j = 0; j < victim_in_batch; ++j) {
        batch.Add(make_query(victim));
      }
    }
    report.submitted += batch.size();
    report.aggressor_submitted += aggressor_n;
    report.victim_submitted += victims.size() * victim_in_batch;
    for (const ProcessedQuery& pq : pool.ProcessBatch(batch)) {
      account_result(pq);
    }
  };

  // Phase 1: warmup — everyone nominal (aggressor at its sustainable
  // rate), establishing the victims' healthy p99.
  const size_t aggressor_nominal = static_cast<size_t>(tokens_per_round);
  std::vector<double> warmup_lat;
  for (size_t r = 0; r < options.warmup_rounds; ++r) {
    run_round(aggressor_nominal, &warmup_lat);
  }

  // Phase 2: flood — the aggressor sends overload_factor x its refill
  // per round while its backend fails.
  flood_active.store(true, std::memory_order_relaxed);
  size_t aggressor_flood_submitted = 0;
  std::vector<double> flood_lat;
  std::vector<std::string> tripped;
  for (size_t r = 0; r < options.flood_rounds; ++r) {
    run_round(aggressor_per_round, &flood_lat);
    aggressor_flood_submitted += aggressor_per_round;
    for (const auto& [name, state] : pool.BreakerStates()) {
      if (state != CircuitBreaker::State::kClosed &&
          std::find(tripped.begin(), tripped.end(), name) == tripped.end()) {
        tripped.push_back(name);
      }
    }
  }
  for (const std::string& name : tripped) {
    if (name.find(":aggressor") != std::string::npos) {
      ++report.aggressor_breakers_tripped;
    } else {
      ++report.victim_breakers_tripped;
    }
  }
  // What the aggressor's quota plus fair share could have admitted at
  // most during the flood: its bucket (burst + refills) and its
  // per-round fairness leftover are each hard caps, so the smaller sum
  // bounds admissions — everything past it MUST have been shed.
  const double burst_cap =
      options.quota_burst +
      static_cast<double>(options.flood_rounds) * tokens_per_round;
  const size_t victim_batch_demand = victims.size() * victim_in_batch;
  const double fair_leftover =
      options.max_in_flight > victim_batch_demand
          ? static_cast<double>(options.max_in_flight - victim_batch_demand)
          : 0.0;
  const double fair_cap =
      static_cast<double>(options.flood_rounds) * fair_leftover;
  const double admittable = std::min(burst_cap, fair_cap);
  report.overload_fraction =
      aggressor_flood_submitted == 0
          ? 0.0
          : std::max(0.0, 1.0 - admittable / static_cast<double>(
                                                aggressor_flood_submitted));
  report.aggressor_shed_rate =
      aggressor_flood_submitted == 0
          ? 0.0
          : static_cast<double>(report.aggressor_shed) /
                static_cast<double>(aggressor_flood_submitted);

  // Phase 3: recovery — the backend heals; keep everyone at nominal
  // rate (advancing the fake clock through the breaker cooldown) until
  // every breaker re-closes.
  flood_active.store(false, std::memory_order_relaxed);
  for (size_t r = 0; r < options.recovery_rounds; ++r) {
    run_round(aggressor_nominal, nullptr);
    ++report.recovery_rounds_used;
    if (AllBreakersClosed(pool)) {
      report.breakers_reclosed = true;
      break;
    }
  }

  // Reconciliation: per account, counter delta == controller total ==
  // journal kShed events carrying that account label.
  collector.Poll();
  const TenantAdmissionController* admission = pool.admission();
  std::map<std::string, uint64_t> controller_sheds;
  for (const TenantAdmissionStats& row : admission->Stats()) {
    controller_sheds[row.account] = row.shed_total();
  }
  report.shed_quota = admission->shed_for(ShedReason::kQuota);
  report.shed_fairness = admission->shed_for(ShedReason::kFairness);
  report.shed_global = admission->shed_for(ShedReason::kGlobal);
  report.sheds_reconciled = true;
  for (const std::string& account : accounts) {
    uint64_t counter_delta =
        shed_counter(account, ShedReason::kQuota).value() +
        shed_counter(account, ShedReason::kFairness).value() +
        shed_counter(account, ShedReason::kGlobal).value() -
        counter_base[account];
    uint64_t journal = collector.Count(obs::EventKind::kShed, account);
    uint64_t controller = 0;
    auto it = controller_sheds.find(account);
    if (it != controller_sheds.end()) controller = it->second;
    if (counter_delta != controller || journal != controller) {
      report.sheds_reconciled = false;
    }
  }
  uint64_t total_sheds = static_cast<uint64_t>(report.aggressor_shed) +
                         static_cast<uint64_t>(report.victim_shed);
  if (admission->shed_total() != total_sheds ||
      collector.Count(obs::EventKind::kShed) != total_sheds) {
    report.sheds_reconciled = false;
  }

  for (const auto& [name, state] : pool.BreakerStates()) {
    if (name.find(":sink_database:") != std::string::npos ||
        name.find(":sink_training:") != std::string::npos) {
      ++report.tenant_breakers;
    }
  }
  report.silent_drops = report.submitted - report.returned;
  report.victim_p99_warmup_ms = Percentile(warmup_lat, 0.99);
  report.victim_p99_flood_ms = Percentile(flood_lat, 0.99);
  report.victim_p99_bound_ms =
      std::max(options.victim_p99_factor * report.victim_p99_warmup_ms,
               options.victim_p99_floor_ms);
  return report;
}

ChaosReport RunChaosSoak(const ChaosOptions& options) {
  ChaosReport report;
  util::Rng rng(options.seed);

  // Flight-recorder evidence trail: discard whatever earlier work in this
  // process left in the rings, then poll the collector throughout so ring
  // capacity (4096 events/thread) is never the limit on attribution.
  std::unique_ptr<obs::TraceCollector> collector;
  if (options.flightrec) {
    report.flightrec_enabled = true;
    std::vector<obs::FlightEvent> discard;
    obs::FlightRecorder::Global().Drain(&discard);
    obs::TraceCollector::Options copts;
    copts.reservoir_capacity = 8;
    collector = std::make_unique<obs::TraceCollector>(copts);
  }
  auto poll = [&] {
    if (collector) collector->Poll();
  };

  QWorkerPool::Options pool_options;
  pool_options.application = "chaos";
  pool_options.num_shards = std::max<size_t>(1, options.num_shards);
  // Round-robin so every shard's breakers see traffic (hash partitioning
  // could starve a shard and stall its recovery).
  pool_options.partition = QWorkerPool::Partition::kRoundRobin;
  pool_options.max_in_flight = options.max_in_flight;
  pool_options.worker.enable_lint = true;
  pool_options.worker.deadline_ms = options.deadline_ms;
  // A soak-friendly breaker: trips on few samples, cools down quickly.
  pool_options.worker.breaker.window = 16;
  pool_options.worker.breaker.min_samples = 4;
  pool_options.worker.breaker.failure_ratio = 0.5;
  pool_options.worker.breaker.open_ms = options.breaker_open_ms;
  pool_options.worker.breaker.half_open_probes = 2;
  pool_options.worker.sink_retry.max_attempts = 2;
  pool_options.worker.sink_retry.initial_backoff_ms = 0.1;
  pool_options.worker.sink_retry.max_backoff_ms = 1.0;
  QWorkerPool pool(pool_options);

  auto primary = TrainUserClassifier("user");
  auto fallback = TrainUserClassifier("user");
  if (primary == nullptr || fallback == nullptr) return report;
  pool.DeployAll({primary});
  pool.DeployFallback(fallback);
  pool.set_database_sink([](const workload::LabeledQuery&) {});
  pool.set_training_sink([](const ProcessedQuery&) {});

  auto process_one = [&](size_t i, std::vector<double>* latencies) {
    workload::LabeledQuery q = MakeQuery(rng, i);
    ++report.submitted;
    util::Stopwatch sw;
    ProcessedQuery pq = pool.Process(q);
    if (latencies != nullptr) latencies->push_back(sw.ElapsedMillis());
    Account(pq, &report);
    poll();
  };

  // Phase 1: warmup — healthy baseline.
  std::vector<double> warmup_lat;
  warmup_lat.reserve(options.warmup_queries);
  for (size_t i = 0; i < options.warmup_queries; ++i) {
    process_one(i, &warmup_lat);
  }

  // Phase 2: fault — counted failpoints model a transient database-sink
  // outage (>= sink_failure_rate of the phase) and a classifier outage;
  // periodic oversized batches force the admission bound to shed.
  auto& failpoints = util::Failpoints::Global();
  {
    util::FailpointSpec sink_fault;
    sink_fault.action = util::FailAction::kError;
    sink_fault.code = util::StatusCode::kUnavailable;
    sink_fault.count = std::max<int64_t>(
        8, static_cast<int64_t>(options.sink_failure_rate *
                                static_cast<double>(options.fault_queries)));
    failpoints.Arm("qworker.sink_database", sink_fault);
    if (options.classifier_outage) {
      util::FailpointSpec task_fault;
      task_fault.action = util::FailAction::kError;
      task_fault.code = util::StatusCode::kUnavailable;
      task_fault.count =
          static_cast<int64_t>(options.fault_queries);  // whole phase
      failpoints.Arm("qworker.classifier_predict", task_fault);
    }
  }
  std::vector<double> fault_lat;
  fault_lat.reserve(options.fault_queries);
  std::vector<std::string> tripped;
  for (size_t i = 0; i < options.fault_queries; ++i) {
    process_one(i, &fault_lat);
    for (const auto& [name, state] : pool.BreakerStates()) {
      if (state != CircuitBreaker::State::kClosed &&
          std::find(tripped.begin(), tripped.end(), name) == tripped.end()) {
        tripped.push_back(name);
      }
    }
    if (options.max_in_flight > 0 && options.shed_burst_every > 0 &&
        i % options.shed_burst_every == options.shed_burst_every - 1) {
      workload::Workload burst;
      for (size_t j = 0; j < 3 * options.max_in_flight; ++j) {
        burst.Add(MakeQuery(rng, j));
      }
      report.submitted += burst.size();
      for (const ProcessedQuery& pq : pool.ProcessBatch(burst)) {
        Account(pq, &report);
      }
      poll();
    }
  }
  report.breakers_tripped = tripped.size();

  // Ground truth for reconciliation must be read *before* Disarm (a
  // disarmed point forgets its hit count).
  report.failpoint_hits_sink = failpoints.hits("qworker.sink_database");
  report.failpoint_hits_classifier =
      failpoints.hits("qworker.classifier_predict");

  // Phase 3: recovery — faults gone; drive traffic until every breaker
  // re-closes (pacing by the cooldown when one is still open).
  failpoints.Disarm("qworker.sink_database");
  failpoints.Disarm("qworker.classifier_predict");
  std::vector<double> recovery_lat;
  recovery_lat.reserve(options.recovery_queries);
  util::Stopwatch recovery_sw;
  for (size_t i = 0; i < options.recovery_queries; ++i) {
    process_one(i, &recovery_lat);
    if (AllBreakersClosed(pool)) {
      report.breakers_reclosed = true;
      report.recovery_ms = recovery_sw.ElapsedMillis();
      break;
    }
    // A breaker still open is waiting out its cooldown; give it time
    // instead of burning the query budget in microseconds.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  if (collector) {
    collector->Poll();  // final drain: nothing may be left buffered
    report.journal_sink_failpoints =
        collector->Count(obs::EventKind::kFailpoint, "qworker.sink_database");
    report.journal_classifier_failpoints = collector->Count(
        obs::EventKind::kFailpoint, "qworker.classifier_predict");
    report.journal_sheds = collector->Count(obs::EventKind::kShed);
    report.journal_breaker_transitions =
        collector->Count(obs::EventKind::kBreakerTransition);
    // Attribution contract: every injected sink/classifier fault and
    // every shed the pool reported has exactly one journal event.
    report.flightrec_ok =
        report.journal_sink_failpoints == report.failpoint_hits_sink &&
        report.journal_classifier_failpoints ==
            report.failpoint_hits_classifier &&
        report.journal_sheds == static_cast<uint64_t>(report.shed) &&
        report.journal_breaker_transitions > 0;
    for (const obs::FlightTrace& trace : collector->Slowest(3)) {
      report.slow_traces.push_back(obs::FlightTraceLine(trace));
    }
  }

  report.silent_drops = report.submitted - report.returned;
  report.shed_rate =
      report.submitted == 0
          ? 0.0
          : static_cast<double>(report.shed) /
                static_cast<double>(report.submitted);
  report.p50_warmup_ms = Percentile(warmup_lat, 0.50);
  report.p99_warmup_ms = Percentile(warmup_lat, 0.99);
  report.p50_fault_ms = Percentile(fault_lat, 0.50);
  report.p99_fault_ms = Percentile(fault_lat, 0.99);
  report.p99_recovery_ms = Percentile(recovery_lat, 0.99);
  return report;
}

}  // namespace querc::core
