#ifndef QUERC_QUERC_QWORKER_H_
#define QUERC_QUERC_QWORKER_H_

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "embed/embed_cache.h"
#include "obs/metrics.h"
#include "querc/admission.h"
#include "querc/classifier.h"
#include "querc/resilience.h"
#include "sql/lint/engine.h"
#include "util/atomic_shared_ptr.h"
#include "util/concurrent_aggregator.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/status.h"
#include "workload/workload.h"

namespace querc::core {

/// A query annotated with the labels Querc's classifiers predicted, plus
/// the per-query fault disposition: a query is never silently dropped —
/// anything that went wrong on its way through the worker is recorded
/// here (and mirrored in counters).
struct ProcessedQuery {
  workload::LabeledQuery query;
  /// task name -> predicted label.
  std::map<std::string, std::string> predictions;
  /// Static-analysis findings from the worker's lint stage (empty when the
  /// stage is disabled or the query is clean).
  std::vector<sql::lint::Diagnostic> diagnostics;

  /// Overall disposition. Non-OK only when the query never reached (or
  /// never completed) a worker: shed at pool admission, or the worker
  /// failed outright. Sink/classifier degradation is reported separately
  /// below — the query itself still flowed.
  util::Status status;
  /// Outcome of the database forward (OK when disabled or no sink set).
  util::Status database_status;
  /// Outcome of the training tee (OK when no sink set).
  util::Status training_status;
  /// True when the pool shed this query at admission (status is
  /// ResourceExhausted and no worker ever saw it).
  bool shed = false;
  /// True when the per-Process deadline expired before every classifier
  /// ran: `predictions` is the partial prefix.
  bool deadline_exceeded = false;
  /// Tasks answered by the deployed *fallback* classifier because the
  /// primary's breaker was open or the primary failed.
  std::vector<std::string> degraded_tasks;
  /// Tasks with no prediction at all (breaker open / primary failed, and
  /// no fallback deployed).
  std::vector<std::string> skipped_tasks;

  /// True when nothing degraded anywhere along the path.
  bool clean() const {
    return status.ok() && database_status.ok() && training_status.ok() &&
           !shed && !deadline_exceeded && degraded_tasks.empty() &&
           skipped_tasks.empty();
  }
};

/// One query after QWorker::Compute, waiting for QWorker::Commit: the
/// result so far plus what the commit stage needs from the compute stage.
struct ComputedQuery {
  /// Predictions, diagnostics and degraded/skipped tasks. A non-OK
  /// `out.status` means Compute failed; Commit passes such a query
  /// through untouched.
  ProcessedQuery out;
  /// Stamped when Compute starts; the sinks in Commit run under it.
  Deadline deadline;
  /// Wall time Compute took. Commit adds its own time to it, so the
  /// service-time record leaves out any wait between the stages.
  double compute_ms = 0.0;
  /// The query's normalized template when lint found diagnostics (the
  /// offender tracker's key); empty otherwise.
  std::string lint_fingerprint;
};

/// Aggregated lint outcome for one normalized query template, tracked per
/// worker so the pool can surface the worst offenders per shard.
struct LintTemplateStats {
  std::string fingerprint;
  std::string example_text;  // raw text of the first offending instance
  size_t instances = 0;      // offending queries seen for this template
  size_t diagnostics = 0;    // total diagnostics across those instances

  /// Total merge: *every* field participates (counters sum; fingerprint
  /// and example_text are kept if set, adopted otherwise). All cross-shard
  /// merging goes through this one function so a new field can never be
  /// silently dropped by a field-by-field call site.
  void Merge(const LintTemplateStats& other);
};

/// The per-application stream worker of Figure 1: runs every deployed
/// classifier over each arriving query, forwards the query downstream (to
/// the database — here a callback), and tees labeled queries to the
/// training module's collector. QWorkers hold only a small bounded window
/// of recent queries (for windowed tasks such as recommendation), so they
/// can be load-balanced and parallelized in the usual ways.
///
/// Fault model: Querc may sit on the database's critical path (§2's
/// query-rewriting deployment), so a QWorker degrades instead of failing:
/// sink exceptions become util::Status (with capped-backoff retries under
/// a per-worker retry budget and a per-sink circuit breaker), a tripped
/// classifier breaker switches that task to a deployed fallback
/// classifier (or skips it with a counter), the per-Process deadline
/// forwards the query with partial predictions rather than blocking, and
/// lint auto-disables under deadline pressure. Every degradation bumps a
/// counter — no query outcome is silent.
///
/// Concurrency model: `Process`/`ProcessBatch` may be called from many
/// threads concurrently with `Deploy`/`Undeploy`/`DeployAll` and the sink
/// setters. The deployed classifier set is an immutable snapshot map
/// behind a util::AtomicSharedPtr slot: writers copy-on-write under a
/// mutex and publish the new map in one store, readers take one snapshot
/// load per query — so every query sees a *consistent* classifier set,
/// never a half-applied deployment, and a deployment never blocks on
/// in-flight queries (it swaps the pointer and returns; old snapshots die
/// with their last reader). Fallback classifiers and per-task breakers
/// are published the same way. Sinks installed via the setters must
/// themselves be thread-safe if the worker is shared across threads.
class QWorker {
 public:
  struct Options {
    std::string application;
    /// Bounded recent-query window retained for windowed labeling tasks.
    size_t window_size = 32;
    /// When false (the "forked" deployment of §2), queries are NOT
    /// forwarded to the database — Querc stays off the critical path.
    bool forward_to_database = true;
    /// Run the static-analysis lint stage on every query (per-rule hit
    /// counters + querc_stage_ms{stage=lint}). Cheap: token scans over
    /// the tokens the embedding stage lexed (each query is lexed once),
    /// no allocation on clean queries.
    bool enable_lint = true;
    /// Offending templates tracked per worker (bounds lint memory). When
    /// the cap is reached a *new* template evicts the least-instances
    /// entry instead of being refused, and every displaced template bumps
    /// querc_lint_templates_dropped_total — a late-arriving hot offender
    /// always surfaces. 0 disables tracking (every offender counted as
    /// dropped).
    size_t lint_template_cap = 256;

    /// Template-keyed embedding cache capacity (entries); 0 disables the
    /// cache entirely (every query re-runs inference). Keys are the
    /// normalized fingerprints the embedders consume, so cached vectors
    /// are bit-identical to recomputed ones — see DESIGN.md §12. Under a
    /// QWorkerPool this is a per-shard budget: the pool's one shared
    /// cache holds num_shards × this many entries.
    size_t embed_cache_capacity = 4096;

    /// Wall-clock budget for one Process call in milliseconds; 0 =
    /// unlimited. On expiry the remaining classifiers are skipped and the
    /// query is forwarded with partial predictions
    /// (querc_deadline_exceeded_total).
    /// Under a deadline, lint is auto-disabled once less than half of
    /// the budget remains (querc_lint_autodisabled_total).
    double deadline_ms = 0.0;
    /// Sink retry schedule (capped exponential backoff, decorrelated
    /// jitter). Attempts beyond the first also consume the worker's
    /// retry budget, so retries cannot amplify an outage.
    RetryOptions sink_retry{};
    RetryBudgetOptions retry_budget{};
    /// Breaker template stamped per sink and per classifier task.
    CircuitBreakerOptions breaker{};
    /// When false, no circuit breakers are created at all (sinks and
    /// classifiers always run; retries/deadline still apply).
    bool enable_breakers = true;
    /// Scope the SINK breakers per account: breaker keys gain the
    /// account dimension ("<application>:sink_database:<account>") and
    /// replace the worker-level sink breakers, so one tenant's failing
    /// sink trips only that tenant's breaker while every other tenant
    /// keeps flowing. Task breakers stay per task — a classifier fault
    /// is model health, not tenant behavior. Requires enable_breakers.
    /// At most 64 tenant breakers stay resident per sink (evict-least,
    /// closed-first; see TenantBreakerMap).
    bool per_tenant_sink_breakers = false;
  };

  using DatabaseSink = std::function<void(const workload::LabeledQuery&)>;
  using TrainingSink = std::function<void(const ProcessedQuery&)>;
  using ClassifierMap =
      std::map<std::string, std::shared_ptr<const Classifier>>;
  using BreakerMap =
      std::map<std::string, std::shared_ptr<CircuitBreaker>>;

  /// Builds a private embedding cache of `embed_cache_capacity` entries
  /// (none when 0).
  explicit QWorker(const Options& options);

  /// Uses `embed_cache` (shared with other workers, e.g. a pool's shards;
  /// null = no cache) instead of building one: `embed_cache_capacity` is
  /// ignored.
  QWorker(const Options& options,
          std::shared_ptr<embed::EmbeddingCache> embed_cache);

  /// Installs (or replaces) a classifier under its task name. Deployment
  /// of retrained models is an atomic snapshot swap; in-flight queries
  /// keep the classifier set they started with.
  void Deploy(std::shared_ptr<const Classifier> classifier)
      EXCLUDES(deploy_mu_);

  /// Installs several classifiers in ONE snapshot swap: no concurrent
  /// query can observe some of them deployed and others not.
  void DeployAll(
      const std::vector<std::shared_ptr<const Classifier>>& classifiers)
      EXCLUDES(deploy_mu_);

  /// Removes a classifier by task name; returns whether it existed.
  bool Undeploy(const std::string& task_name) EXCLUDES(deploy_mu_);

  /// Installs a (typically cheaper) fallback classifier for its task.
  /// When the primary's breaker is open or the primary errors, the task
  /// degrades to the fallback instead of going unanswered — the
  /// Query2Vec result that labeling quality degrades gracefully with
  /// cheaper embedders makes this principled.
  void DeployFallback(std::shared_ptr<const Classifier> classifier)
      EXCLUDES(deploy_mu_);

  /// Removes a fallback by task name; returns whether it existed.
  bool UndeployFallback(const std::string& task_name) EXCLUDES(deploy_mu_);

  void set_database_sink(DatabaseSink sink);
  void set_training_sink(TrainingSink sink);

  /// Processes one arriving query through every deployed classifier:
  /// Commit(query, Compute(query)). Thread-safe; may race with
  /// deployments (see class comment). Never throws: sink, classifier and
  /// deadline faults are reported in the returned ProcessedQuery and in
  /// counters, and any other exception becomes status = Internal on it
  /// (querc_worker_errors_total), so one poisoned query cannot lose the
  /// rest of a batch.
  ProcessedQuery Process(const workload::LabeledQuery& query);

  /// The stateless half of Process, safe to run for many queries of this
  /// worker at once and in any order: stamps the deadline, loads the
  /// classifier, fallback and breaker snapshots, lexes once, embeds
  /// through the embedding cache, classifies down the breaker → fallback
  /// ladder, and lints (standing down under deadline pressure). Never
  /// throws (see Process).
  ComputedQuery Compute(const workload::LabeledQuery& query);

  /// The ordered half: pushes the query into the window, forwards it to
  /// the database and training sinks under the deadline Compute stamped,
  /// and records its counters and service time (compute + commit). The
  /// window and the sinks see queries in the order they are committed,
  /// so a worker's queries are committed in arrival order. Never throws
  /// (see Process).
  ProcessedQuery Commit(const workload::LabeledQuery& query,
                        ComputedQuery computed);

  /// Processes a batch ("query(X, t)" in the paper's notation), one query
  /// after another.
  std::vector<ProcessedQuery> ProcessBatch(const workload::Workload& batch);

  /// A snapshot copy of the bounded window of most recent queries seen.
  std::deque<workload::LabeledQuery> window() const EXCLUDES(window_mu_);

  /// The current deployed-classifier snapshot.
  std::shared_ptr<const ClassifierMap> classifiers() const;

  /// The current fallback-classifier snapshot.
  std::shared_ptr<const ClassifierMap> fallbacks() const;

  const std::string& application() const { return options_.application; }
  size_t num_classifiers() const;
  size_t processed_count() const {
    return processed_count_.load(std::memory_order_relaxed);
  }
  /// Process latency since construction: count, sum, min/max, mean and
  /// p50/p90/p99 in milliseconds (min and max read 0 while empty).
  /// Lock-free to read; the record side is atomic bucket increments on
  /// the Process hot path.
  obs::HistogramSnapshot latency_snapshot() const {
    return latency_hist_.Snapshot();
  }

  /// Every breaker this worker owns (sinks first, then deployed tasks)
  /// with its current state, for `querc stats` and the chaos driver.
  std::vector<std::pair<std::string, CircuitBreaker::State>> BreakerStates()
      const;

  /// Total lint diagnostics emitted by this worker since construction.
  size_t lint_diagnostic_count() const {
    return lint_diagnostic_count_.load(std::memory_order_relaxed);
  }

  /// The `n` templates with the most lint diagnostics, worst first.
  std::vector<LintTemplateStats> TopOffendingTemplates(size_t n) const;

  /// Offending templates displaced (or refused, when lint_template_cap is
  /// 0) by the bounded tracker since construction. Also exported as
  /// querc_lint_templates_dropped_total.
  size_t lint_templates_dropped() const {
    return lint_templates_dropped_.load(std::memory_order_relaxed);
  }

  /// The lint engine this worker runs (builtin rules, worker dialect).
  const sql::lint::LintEngine& lint_engine() const { return lint_engine_; }

  /// The worker's embedding cache (shared with its pool's other shards),
  /// or null when disabled.
  embed::EmbeddingCache* embed_cache() const { return embed_cache_.get(); }

 private:
  /// Runs `call` through the sink fault machinery: breaker gate,
  /// failpoint, exception→Status, retries under the budget and deadline.
  util::Status InvokeSink(const char* sink_label,
                          std::string_view failpoint_name,
                          CircuitBreaker* breaker, const Deadline& deadline,
                          const std::function<void()>& call);

  Options options_;
  /// Immutable published snapshot; writers serialize on deploy_mu_ and
  /// copy-on-write, readers snapshot-load. Never null.
  util::AtomicSharedPtr<const ClassifierMap> classifiers_;
  /// Fallbacks and per-task breakers: same publication discipline.
  util::AtomicSharedPtr<const ClassifierMap> fallbacks_;
  util::AtomicSharedPtr<const BreakerMap> task_breakers_;
  /// Serializes copy-on-write deployments. Held across breaker
  /// construction (which registers metrics series) and the snapshot
  /// publish — hence rank kQWorkerDeploy below kBreaker,
  /// kAtomicSharedPtr, and kMetricsRegistry. The snapshot pointers above
  /// are not GUARDED_BY it: readers go straight through AtomicSharedPtr.
  util::Mutex deploy_mu_{util::LockRank::kQWorkerDeploy,
                         "qworker.deploy_mu"};
  /// Sinks are published the same way so setters can race with Process.
  util::AtomicSharedPtr<const DatabaseSink> database_;
  util::AtomicSharedPtr<const TrainingSink> training_;
  mutable util::Mutex window_mu_{util::LockRank::kQWorkerWindow,
                                 "qworker.window_mu"};
  std::deque<workload::LabeledQuery> window_ GUARDED_BY(window_mu_);
  std::atomic<size_t> processed_count_{0};
  /// Per-worker Process latency; also mirrored into the global registry's
  /// querc_qworker_process_ms so exporters see the service-wide view.
  obs::Histogram latency_hist_;

  /// Sink breakers (one per sink, named "<application>:sink_*"); null
  /// when breakers are disabled or scoped per tenant.
  std::unique_ptr<CircuitBreaker> database_breaker_;
  std::unique_ptr<CircuitBreaker> training_breaker_;
  /// Per-tenant sink breakers (null unless per_tenant_sink_breakers):
  /// bounded account->breaker maps built instead of the two above.
  std::unique_ptr<TenantBreakerMap> database_tenant_breakers_;
  std::unique_ptr<TenantBreakerMap> training_tenant_breakers_;
  RetryPolicy sink_retry_;
  RetryBudget retry_budget_;

  /// Lint stage. The engine is immutable after construction (safe to call
  /// from every processing thread); per-rule counters are resolved once
  /// here so the hot path touches only counter atomics.
  sql::lint::LintEngine lint_engine_;
  std::map<std::string, obs::Counter*> lint_counters_;
  std::atomic<size_t> lint_diagnostic_count_{0};
  /// Per-template offender tracking: lock-free concurrent aggregation
  /// (count = instances, weight = diagnostics, tag = example text), with
  /// evict-least + drop-counting bounded-capacity semantics replacing the
  /// old mutexed map that silently refused templates past the cap.
  util::ConcurrentAggregator lint_templates_;
  std::atomic<size_t> lint_templates_dropped_{0};

  /// Template-keyed embedding cache for the once-per-query shared
  /// embedding fast path; null when disabled. Thread-safe internally.
  std::shared_ptr<embed::EmbeddingCache> embed_cache_;
};

}  // namespace querc::core

#endif  // QUERC_QUERC_QWORKER_H_
