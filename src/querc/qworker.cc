#include "querc/qworker.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>

#include "embed/embedder.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/stopwatch.h"

namespace querc::core {

namespace {

/// Resident per-tenant sink breakers per sink (evict-least, closed-first;
/// see TenantBreakerMap).
constexpr size_t kTenantBreakerCap = 64;

/// Under a deadline, lint stands down once less than this fraction of the
/// budget remains.
constexpr double kLintMinDeadlineFraction = 0.5;

/// A standalone worker's private embedding cache; null when disabled.
std::shared_ptr<embed::EmbeddingCache> OwnEmbedCache(size_t capacity) {
  if (capacity == 0) return nullptr;
  embed::EmbeddingCache::Options options;
  options.capacity = capacity;
  return std::make_shared<embed::EmbeddingCache>(options);
}

/// Registry metrics shared by every worker; resolved once, then the hot
/// path touches only their atomics (no registry mutex, no lock).
obs::Histogram& GlobalProcessHistogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::Global().GetHistogram(
      "querc_qworker_process_ms", {},
      "End-to-end QWorker::Process latency in milliseconds, all workers");
  return hist;
}

obs::Counter& GlobalQueriesCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "querc_qworker_queries_total", {},
      "Queries processed by all QWorkers");
  return counter;
}

obs::Counter& DeadlineExceededCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "querc_deadline_exceeded_total", {},
      "Queries forwarded with partial predictions after the Process "
      "deadline expired");
  return counter;
}

obs::Counter& RetriesCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "querc_retries_total", {}, "Sink retry attempts issued");
  return counter;
}

obs::Counter& RetryBudgetExhaustedCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "querc_retry_budget_exhausted_total", {},
      "Retries suppressed because the shard's retry budget was dry");
  return counter;
}

obs::Counter& FallbackPredictionsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "querc_fallback_predictions_total", {},
      "Predictions served by a fallback classifier (primary degraded)");
  return counter;
}

obs::Counter& ClassifierSkippedCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "querc_classifier_skipped_total", {},
      "Tasks skipped with no prediction (breaker open, no fallback)");
  return counter;
}

obs::Counter& LintAutodisabledCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "querc_lint_autodisabled_total", {},
      "Queries whose lint stage was skipped under deadline pressure");
  return counter;
}

obs::Counter& LintStageErrorsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "querc_lint_stage_errors_total", {},
      "Lint stage failures (injected or thrown); the query still flowed");
  return counter;
}

obs::Counter& LintTemplatesDroppedCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "querc_lint_templates_dropped_total", {},
      "Offending templates displaced from (or refused by) the bounded "
      "per-worker offender tracker; their per-template counts are gone "
      "but were never silently lost");
  return counter;
}

/// Per-worker offender-tracker configuration: the cap maps onto the
/// aggregator's bounded capacity (min 1 — a zero cap is handled by the
/// caller, which skips recording entirely).
util::ConcurrentAggregator::Options LintAggregatorOptions(size_t cap) {
  util::ConcurrentAggregator::Options options;
  options.capacity = cap == 0 ? 1 : cap;
  options.shards = 4;
  return options;
}

obs::Counter& WorkerErrorsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "querc_worker_errors_total", {},
      "Queries whose Compute or Commit stage failed outright");
  return counter;
}

/// The per-query error guard, called from the catch handler of `stage`
/// (Compute or Commit): the query carries nothing but itself and
/// status = Internal, so one poisoned query cannot lose a batch.
ProcessedQuery FailedQuery(const workload::LabeledQuery& query,
                           const char* stage) {
  std::string message(stage);
  try {
    throw;
  } catch (const std::exception& e) {
    message += std::string(": ") + e.what();
  } catch (...) {
    message += " threw";
  }
  WorkerErrorsCounter().Increment();
  ProcessedQuery out;
  out.query = query;
  out.status = util::Status::Internal(std::move(message));
  return out;
}

obs::Counter& SinkErrorsCounterSlow(const char* sink) {
  return obs::MetricsRegistry::Global().GetCounter(
      "querc_sink_errors_total", {{"sink", sink}},
      "Sink invocation failures (exception or injected), per sink");
}

/// The two sink labels are fixed ("database"/"training"), so each series
/// is cached in its own function-local static — the failure path then
/// increments a plain atomic instead of taking the registry mutex. An
/// unknown label falls back to the registry lookup.
obs::Counter& SinkErrorsCounter(const char* sink) {
  if (std::strcmp(sink, "database") == 0) {
    static obs::Counter& counter = SinkErrorsCounterSlow("database");
    return counter;
  }
  if (std::strcmp(sink, "training") == 0) {
    static obs::Counter& counter = SinkErrorsCounterSlow("training");
    return counter;
  }
  return SinkErrorsCounterSlow(sink);
}

obs::Counter& SinkSkippedCounterSlow(const char* sink) {
  return obs::MetricsRegistry::Global().GetCounter(
      "querc_sink_skipped_total", {{"sink", sink}},
      "Sink invocations refused by an open circuit breaker, per sink");
}

obs::Counter& SinkSkippedCounter(const char* sink) {
  if (std::strcmp(sink, "database") == 0) {
    static obs::Counter& counter = SinkSkippedCounterSlow("database");
    return counter;
  }
  if (std::strcmp(sink, "training") == 0) {
    static obs::Counter& counter = SinkSkippedCounterSlow("training");
    return counter;
  }
  return SinkSkippedCounterSlow(sink);
}

obs::Counter& ClassifierErrorsCounter(const std::string& task) {
  return obs::MetricsRegistry::Global().GetCounter(
      "querc_classifier_errors_total", {{"task", task}},
      "Primary classifier prediction failures, per task");
}

/// Jitter source for retry backoff: one deterministic stream per thread,
/// forked off a process-wide seed sequence (thread-safe without locking
/// the worker).
util::Rng& ThreadRng() {
  static std::atomic<uint64_t> seeds{0x5eed5eed5eed5eedULL};
  thread_local util::Rng rng(seeds.fetch_add(0x9e3779b97f4a7c15ULL,
                                             std::memory_order_relaxed));
  return rng;
}

}  // namespace

void LintTemplateStats::Merge(const LintTemplateStats& other) {
  instances += other.instances;
  diagnostics += other.diagnostics;
  if (fingerprint.empty()) fingerprint = other.fingerprint;
  if (example_text.empty()) example_text = other.example_text;
}

QWorker::QWorker(const Options& options)
    : QWorker(options, OwnEmbedCache(options.embed_cache_capacity)) {}

QWorker::QWorker(const Options& options,
                 std::shared_ptr<embed::EmbeddingCache> embed_cache)
    : options_(options),
      sink_retry_(options.sink_retry),
      retry_budget_(options.retry_budget),
      lint_templates_(LintAggregatorOptions(options.lint_template_cap)),
      embed_cache_(std::move(embed_cache)) {
  classifiers_.store(std::make_shared<const ClassifierMap>());
  fallbacks_.store(std::make_shared<const ClassifierMap>());
  task_breakers_.store(std::make_shared<const BreakerMap>());
  if (options_.enable_breakers && options_.per_tenant_sink_breakers) {
    TenantBreakerMap::Options tenant;
    tenant.breaker = options_.breaker;
    tenant.capacity = kTenantBreakerCap;
    tenant.name_prefix = options_.application + ":sink_database";
    database_tenant_breakers_ = std::make_unique<TenantBreakerMap>(tenant);
    tenant.name_prefix = options_.application + ":sink_training";
    training_tenant_breakers_ = std::make_unique<TenantBreakerMap>(tenant);
  } else if (options_.enable_breakers) {
    database_breaker_ = std::make_unique<CircuitBreaker>(
        options_.application + ":sink_database", options_.breaker);
    training_breaker_ = std::make_unique<CircuitBreaker>(
        options_.application + ":sink_training", options_.breaker);
  }
  // Resolve one hit counter per lint rule up front; registration takes the
  // registry mutex, but Process then increments plain atomics.
  for (const auto& rule : lint_engine_.registry().rules()) {
    std::string id(rule->id());
    lint_counters_[id] = &obs::MetricsRegistry::Global().GetCounter(
        "querc_lint_hits_total", {{"rule", id}},
        "Lint diagnostics emitted per rule, all workers");
  }
}

void QWorker::Deploy(std::shared_ptr<const Classifier> classifier) {
  util::MutexLock lock(&deploy_mu_);
  const std::string& task = classifier->task_name();
  auto next = std::make_shared<ClassifierMap>(*classifiers_.load());
  (*next)[task] = std::move(classifier);
  if (options_.enable_breakers) {
    auto breakers = task_breakers_.load();
    if (breakers->find(task) == breakers->end()) {
      auto next_breakers = std::make_shared<BreakerMap>(*breakers);
      (*next_breakers)[task] = std::make_shared<CircuitBreaker>(
          options_.application + ":task_" + task, options_.breaker);
      task_breakers_.store(std::move(next_breakers));
    }
  }
  classifiers_.store(std::move(next));
}

void QWorker::DeployAll(
    const std::vector<std::shared_ptr<const Classifier>>& classifiers) {
  util::MutexLock lock(&deploy_mu_);
  auto next = std::make_shared<ClassifierMap>(*classifiers_.load());
  std::shared_ptr<BreakerMap> next_breakers;
  for (const auto& classifier : classifiers) {
    const std::string& task = classifier->task_name();
    (*next)[task] = classifier;
    if (options_.enable_breakers) {
      const BreakerMap& current =
          next_breakers ? *next_breakers : *task_breakers_.load();
      if (current.find(task) == current.end()) {
        if (!next_breakers) {
          next_breakers = std::make_shared<BreakerMap>(current);
        }
        (*next_breakers)[task] = std::make_shared<CircuitBreaker>(
            options_.application + ":task_" + task, options_.breaker);
      }
    }
  }
  if (next_breakers) task_breakers_.store(std::move(next_breakers));
  classifiers_.store(std::move(next));
}

bool QWorker::Undeploy(const std::string& task_name) {
  util::MutexLock lock(&deploy_mu_);
  auto current = classifiers_.load();
  if (current->find(task_name) == current->end()) return false;
  auto next = std::make_shared<ClassifierMap>(*current);
  next->erase(task_name);
  classifiers_.store(std::move(next));
  auto breakers = task_breakers_.load();
  if (breakers->find(task_name) != breakers->end()) {
    auto next_breakers = std::make_shared<BreakerMap>(*breakers);
    next_breakers->erase(task_name);
    task_breakers_.store(std::move(next_breakers));
  }
  return true;
}

void QWorker::DeployFallback(std::shared_ptr<const Classifier> classifier) {
  util::MutexLock lock(&deploy_mu_);
  auto next = std::make_shared<ClassifierMap>(*fallbacks_.load());
  (*next)[classifier->task_name()] = std::move(classifier);
  fallbacks_.store(std::move(next));
}

bool QWorker::UndeployFallback(const std::string& task_name) {
  util::MutexLock lock(&deploy_mu_);
  auto current = fallbacks_.load();
  if (current->find(task_name) == current->end()) return false;
  auto next = std::make_shared<ClassifierMap>(*current);
  next->erase(task_name);
  fallbacks_.store(std::move(next));
  return true;
}

void QWorker::set_database_sink(DatabaseSink sink) {
  database_.store(std::make_shared<const DatabaseSink>(std::move(sink)));
}

void QWorker::set_training_sink(TrainingSink sink) {
  training_.store(std::make_shared<const TrainingSink>(std::move(sink)));
}

std::shared_ptr<const QWorker::ClassifierMap> QWorker::classifiers() const {
  return classifiers_.load();
}

std::shared_ptr<const QWorker::ClassifierMap> QWorker::fallbacks() const {
  return fallbacks_.load();
}

size_t QWorker::num_classifiers() const {
  return classifiers_.load()->size();
}

std::deque<workload::LabeledQuery> QWorker::window() const {
  util::MutexLock lock(&window_mu_);
  return window_;
}

std::vector<std::pair<std::string, CircuitBreaker::State>>
QWorker::BreakerStates() const {
  std::vector<std::pair<std::string, CircuitBreaker::State>> out;
  if (database_breaker_) {
    out.emplace_back(database_breaker_->name(), database_breaker_->state());
  }
  if (training_breaker_) {
    out.emplace_back(training_breaker_->name(), training_breaker_->state());
  }
  if (database_tenant_breakers_) {
    auto states = database_tenant_breakers_->States();
    out.insert(out.end(), states.begin(), states.end());
  }
  if (training_tenant_breakers_) {
    auto states = training_tenant_breakers_->States();
    out.insert(out.end(), states.begin(), states.end());
  }
  auto breakers = task_breakers_.load();
  for (const auto& [task, breaker] : *breakers) {
    out.emplace_back(breaker->name(), breaker->state());
  }
  return out;
}

util::Status QWorker::InvokeSink(const char* sink_label,
                                 std::string_view failpoint_name,
                                 CircuitBreaker* breaker,
                                 const Deadline& deadline,
                                 const std::function<void()>& call) {
  double backoff_ms = 0.0;
  for (int attempt = 1;; ++attempt) {
    if (breaker != nullptr && !breaker->Allow()) {
      SinkSkippedCounter(sink_label).Increment();
      return util::Status::Unavailable(std::string(sink_label) +
                                       " sink breaker open");
    }
    util::Status status = util::MaybeFail(failpoint_name);
    if (status.ok()) {
      try {
        call();
      } catch (const std::exception& e) {
        status = util::Status::Internal(std::string(sink_label) +
                                        " sink: " + e.what());
      } catch (...) {
        status =
            util::Status::Internal(std::string(sink_label) + " sink threw");
      }
    }
    if (status.ok()) {
      if (breaker != nullptr) breaker->RecordSuccess();
      retry_budget_.RecordSuccess();
      return status;
    }
    if (breaker != nullptr) breaker->RecordFailure();
    SinkErrorsCounter(sink_label).Increment();
    obs::FlightRecorder::Global().RecordInstant(
        obs::EventKind::kError, sink_label, static_cast<uint8_t>(attempt));
    if (attempt >= sink_retry_.max_attempts()) return status;
    if (deadline.Expired()) return status;
    if (!retry_budget_.TrySpend()) {
      RetryBudgetExhaustedCounter().Increment();
      return status;
    }
    RetriesCounter().Increment();
    obs::FlightRecorder::Global().RecordInstant(
        obs::EventKind::kRetry, sink_label, static_cast<uint8_t>(attempt));
    backoff_ms = sink_retry_.NextBackoffMs(backoff_ms, ThreadRng());
    if (backoff_ms > 0.0) {
      // Never sleep past the deadline: a retry that cannot finish in
      // budget is not worth waiting for.
      double sleep_ms = std::min(backoff_ms, deadline.RemainingMs());
      if (sleep_ms > 0.0 && std::isfinite(sleep_ms)) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(sleep_ms));
      } else if (std::isinf(sleep_ms)) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff_ms));
      }
    }
  }
}

ProcessedQuery QWorker::Process(const workload::LabeledQuery& query) {
  // The trace scopes this thread's stage spans (lex/normalize/embed in
  // Compute, lint, the sinks in Commit) to this query; all recording is
  // atomic histogram increments — no mutex is taken for telemetry on this
  // path.
  obs::Trace trace("qworker_process");
  return Commit(query, Compute(query));
}

ComputedQuery QWorker::Compute(const workload::LabeledQuery& query) try {
  util::Stopwatch timer;
  ComputedQuery computed;
  ProcessedQuery& out = computed.out;
  out.query = query;
  Deadline& deadline = computed.deadline;
  if (options_.deadline_ms > 0.0) {
    deadline = Deadline::After(options_.deadline_ms, options_.breaker.clock);
  }
  // One snapshot load pins the classifier set for this whole query:
  // a racing Deploy/Undeploy publishes a *new* map and cannot mutate the
  // one we hold, so the prediction set is always internally consistent.
  std::shared_ptr<const ClassifierMap> classifiers = classifiers_.load();
  std::shared_ptr<const BreakerMap> breakers = task_breakers_.load();
  std::shared_ptr<const ClassifierMap> fallbacks = fallbacks_.load();

  // One lex per query, on first use: the embedding words and the lint
  // stage both read these tokens.
  std::optional<sql::TokenList> tokens;
  auto lexed = [&]() -> const sql::TokenList& {
    if (!tokens.has_value()) {
      static obs::Histogram& hist = obs::StageHistogram("lex");
      obs::Span span(&hist, "lex");
      tokens = embed::LexForEmbedding(query.text, query.dialect);
    }
    return *tokens;
  };

  // Shared-embedding fast path: normalize the query once, then embed at
  // most once per *distinct embedder instance* across every deployed task
  // (primaries and fallbacks alike) — instead of each classifier
  // re-running lex + normalize + inference. With the template cache
  // enabled, repeats of the same normalized fingerprint skip inference
  // entirely; cached and recomputed vectors are bit-identical (the key is
  // the exact Embed() input), so predictions cannot change.
  std::optional<std::vector<std::string>> words;
  std::map<uint64_t, std::shared_ptr<const nn::Vec>> shared_embeddings;
  auto embedding_for =
      [&](const Classifier& classifier) -> const nn::Vec& {
    const embed::Embedder& embedder = classifier.embedder();
    auto it = shared_embeddings.find(embedder.instance_id());
    if (it == shared_embeddings.end()) {
      if (!words.has_value()) {
        // Lex before opening the normalize span, so neither nests.
        const sql::TokenList& lexed_tokens = lexed();
        static obs::Histogram& hist = obs::StageHistogram("normalize");
        obs::Span span(&hist, "normalize");
        words = embed::NormalizeForEmbedding(lexed_tokens);
      }
      std::shared_ptr<const nn::Vec> vec;
      if (embed_cache_) {
        static obs::Histogram& cache_hist =
            obs::StageHistogram("embed_cache");
        obs::Span cache_span(&cache_hist, "embed_cache");
        vec = embed_cache_->GetOrCompute(
            embed::EmbeddingCache::KeyFor(embedder, *words), [&] {
              static obs::Histogram& hist = obs::StageHistogram("embed");
              obs::Span span(&hist, "embed");
              return embedder.Embed(*words);
            });
      } else {
        static obs::Histogram& hist = obs::StageHistogram("embed");
        obs::Span span(&hist, "embed");
        vec = std::make_shared<const nn::Vec>(embedder.Embed(*words));
      }
      it = shared_embeddings.emplace(embedder.instance_id(), std::move(vec))
               .first;
    }
    return *it->second;
  };

  for (const auto& [task, classifier] : *classifiers) {
    if (deadline.Expired()) {
      // Partial predictions beat a blocked query path: stop classifying
      // and let the query flow downstream with what we have.
      out.deadline_exceeded = true;
      DeadlineExceededCounter().Increment();
      break;
    }
    CircuitBreaker* breaker = nullptr;
    if (auto it = breakers->find(task); it != breakers->end()) {
      breaker = it->second.get();
    }
    if (breaker == nullptr || breaker->Allow()) {
      util::Status status = util::MaybeFail("qworker.classifier_predict");
      std::string prediction;
      if (status.ok()) {
        try {
          prediction = classifier->PredictFromEmbedding(
              embedding_for(*classifier));
        } catch (const std::exception& e) {
          status = util::Status::Internal(std::string("classifier ") + task +
                                          ": " + e.what());
        } catch (...) {
          status =
              util::Status::Internal("classifier " + task + " threw");
        }
      }
      if (status.ok()) {
        if (breaker != nullptr) breaker->RecordSuccess();
        out.predictions[task] = std::move(prediction);
        continue;
      }
      if (breaker != nullptr) breaker->RecordFailure();
      ClassifierErrorsCounter(task).Increment();
      obs::FlightRecorder::Global().RecordInstant(obs::EventKind::kError,
                                                  task.c_str());
    }
    // Degradation ladder: primary unavailable or failed — try the
    // deployed fallback, else skip the task with a counter.
    if (auto fit = fallbacks->find(task); fit != fallbacks->end()) {
      try {
        out.predictions[task] =
            fit->second->PredictFromEmbedding(embedding_for(*fit->second));
        out.degraded_tasks.push_back(task);
        FallbackPredictionsCounter().Increment();
        continue;
      } catch (...) {
        // Fall through to skip.
      }
    }
    out.skipped_tasks.push_back(task);
    ClassifierSkippedCounter().Increment();
  }

  bool run_lint = options_.enable_lint;
  if (run_lint && !deadline.infinite()) {
    // Lint is advisory; under deadline pressure it is the first stage to
    // stand down.
    if (out.deadline_exceeded ||
        deadline.RemainingMs() <
            kLintMinDeadlineFraction * options_.deadline_ms) {
      run_lint = false;
      LintAutodisabledCounter().Increment();
    }
  }
  if (run_lint) {
    static obs::Histogram& lint_hist = obs::StageHistogram("lint");
    obs::Span lint_span(&lint_hist, "lint");
    util::Status lint_status = util::MaybeFail("qworker.lint");
    sql::lint::QueryLint lint;
    if (lint_status.ok()) {
      try {
        lint = lint_engine_.LintQuery(query.text, lexed());
      } catch (...) {
        lint_status = util::Status::Internal("lint stage threw");
      }
    }
    if (!lint_status.ok()) {
      LintStageErrorsCounter().Increment();
    } else if (!lint.diagnostics.empty()) {
      computed.lint_fingerprint = std::move(lint.fingerprint);
      out.diagnostics = std::move(lint.diagnostics);
    }
  }
  computed.compute_ms = timer.ElapsedMillis();
  return computed;
} catch (...) {
  ComputedQuery failed;
  failed.out = FailedQuery(query, "Compute");
  return failed;
}

ProcessedQuery QWorker::Commit(const workload::LabeledQuery& query,
                               ComputedQuery computed) try {
  ProcessedQuery& out = computed.out;
  if (!out.status.ok()) return std::move(out);
  util::Stopwatch timer;
  const Deadline& deadline = computed.deadline;
  processed_count_.fetch_add(1, std::memory_order_relaxed);

  if (!out.diagnostics.empty()) {
    lint_diagnostic_count_.fetch_add(out.diagnostics.size(),
                                     std::memory_order_relaxed);
    for (const sql::lint::Diagnostic& d : out.diagnostics) {
      auto it = lint_counters_.find(d.rule_id);
      if (it != lint_counters_.end()) it->second->Increment();
    }
    if (options_.lint_template_cap == 0) {
      // Tracking disabled: the offender is not recorded, but it is
      // *counted* as dropped rather than silently vanishing.
      lint_templates_dropped_.fetch_add(1, std::memory_order_relaxed);
      LintTemplatesDroppedCounter().Increment();
    } else {
      // Lock-free concurrent aggregation (count = instances, weight =
      // diagnostics, tag = first offending text). At the cap, a new
      // template evicts the least-instances entry — a late hot offender
      // still surfaces — and each displaced template bumps the dropped
      // counter.
      auto outcome = lint_templates_.Record(
          computed.lint_fingerprint, /*count_delta=*/1,
          /*weight_delta=*/out.diagnostics.size(), query.text);
      if (outcome == util::ConcurrentAggregator::Outcome::kEvicted ||
          outcome == util::ConcurrentAggregator::Outcome::kDropped) {
        lint_templates_dropped_.fetch_add(1, std::memory_order_relaxed);
        LintTemplatesDroppedCounter().Increment();
      }
    }
  }

  {
    util::MutexLock lock(&window_mu_);
    window_.push_back(query);
    while (window_.size() > options_.window_size) window_.pop_front();
  }

  if (options_.forward_to_database) {
    auto database = database_.load();
    if (database && *database) {
      static obs::Histogram& hist = obs::StageHistogram("sink_database");
      obs::Span span(&hist, "sink_database");
      // With per-tenant scoping the account's own breaker gates the call
      // (the shared_ptr keeps it alive across a concurrent eviction);
      // otherwise the worker-level sink breaker does.
      CircuitBreaker* breaker = database_breaker_.get();
      std::shared_ptr<CircuitBreaker> tenant_breaker;
      if (database_tenant_breakers_) {
        tenant_breaker = database_tenant_breakers_->GetOrCreate(query.account);
        breaker = tenant_breaker.get();
      }
      out.database_status =
          InvokeSink("database", "qworker.sink_database", breaker, deadline,
                     [&database, &query] { (*database)(query); });
    }
  }
  auto training = training_.load();
  if (training && *training) {
    static obs::Histogram& hist = obs::StageHistogram("sink_training");
    obs::Span span(&hist, "sink_training");
    CircuitBreaker* breaker = training_breaker_.get();
    std::shared_ptr<CircuitBreaker> tenant_breaker;
    if (training_tenant_breakers_) {
      tenant_breaker = training_tenant_breakers_->GetOrCreate(query.account);
      breaker = tenant_breaker.get();
    }
    out.training_status =
        InvokeSink("training", "qworker.sink_training", breaker, deadline,
                   [&training, &out] { (*training)(out); });
  }

  double ms = computed.compute_ms + timer.ElapsedMillis();
  latency_hist_.Record(ms);
  GlobalProcessHistogram().Record(ms);
  GlobalQueriesCounter().Increment();
  return std::move(out);
} catch (...) {
  return FailedQuery(query, "Commit");
}

std::vector<LintTemplateStats> QWorker::TopOffendingTemplates(
    size_t n) const {
  // Phase-1 snapshot of the lock-free aggregator (blocks evictions, not
  // the Record hot path); Top() already orders by weight (= diagnostics)
  // then count (= instances).
  std::vector<util::AggregateEntry> top = lint_templates_.Top(n);
  std::vector<LintTemplateStats> templates;
  templates.reserve(top.size());
  for (util::AggregateEntry& entry : top) {
    LintTemplateStats stats;
    stats.fingerprint = std::move(entry.key);
    stats.example_text = std::move(entry.tag);
    stats.instances = static_cast<size_t>(entry.count);
    stats.diagnostics = static_cast<size_t>(entry.weight);
    templates.push_back(std::move(stats));
  }
  return templates;
}

std::vector<ProcessedQuery> QWorker::ProcessBatch(
    const workload::Workload& batch) {
  std::vector<ProcessedQuery> out;
  out.reserve(batch.size());
  for (const auto& q : batch) out.push_back(Process(q));
  return out;
}

}  // namespace querc::core
