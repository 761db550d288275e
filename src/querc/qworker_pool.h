#ifndef QUERC_QUERC_QWORKER_POOL_H_
#define QUERC_QUERC_QWORKER_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "querc/admission.h"
#include "querc/qworker.h"
#include "util/thread_pool.h"

namespace querc::core {

/// Per-shard statistics snapshot exposed for benchmarks and ops.
struct ShardStats {
  size_t shard = 0;
  size_t processed = 0;
  size_t num_classifiers = 0;
  /// The shard's Process latency in ms: min/max, mean() and
  /// p50()/p90()/p99(). Merge() folds shards into a pooled view.
  obs::HistogramSnapshot histogram;
  /// Lint diagnostics emitted by this shard's lint stage.
  size_t lint_diagnostics = 0;
  /// Offending templates displaced from this shard's bounded tracker
  /// (evict-least; see QWorker::Options::lint_template_cap).
  size_t lint_templates_dropped = 0;
  /// The shard's worst templates by lint diagnostics (bounded top-N).
  std::vector<LintTemplateStats> top_offending_templates;
};

/// Sharded, thread-safe QWorker service layer: the paper's remark that
/// QWorkers "can be load-balanced and parallelized in the usual ways"
/// (§2, Figure 1), made concrete. Arriving queries are hashed across N
/// QWorker shards — by account (default: one tenant's stream stays on one
/// shard, preserving its bounded window), by user, or round-robin — and
/// batches run on a shared util::ThreadPool in two stages: every query's
/// QWorker::Compute, balanced by query across all threads, then one task
/// per shard that commits its queries in arrival order (DESIGN.md §7).
/// Deployments apply to every shard; each shard's classifier set
/// is an immutable snapshot (see QWorker), so Deploy/Undeploy can race
/// Process/ProcessBatch safely and every query sees a consistent set.
/// All shards share one embedding cache, so a template is embedded once
/// per pool however the partition spreads it (DESIGN.md §12).
class QWorkerPool {
 public:
  /// How queries are assigned to shards.
  enum class Partition {
    kByAccount,  ///< hash(query.account): per-tenant stream affinity
    kByUser,     ///< hash(query.user): per-user stream affinity
    kRoundRobin  ///< ignore identity, spread uniformly
  };

  struct Options {
    std::string application;
    size_t num_shards = 4;
    /// Threads in the owned pool (ignored when a shared `thread_pool` is
    /// passed). 0 = one thread per shard, capped to the machine's cpu
    /// count (util::DefaultThreadCount()) — extra threads past the cpus
    /// only add queueing interference.
    size_t threads = 0;
    Partition partition = Partition::kByAccount;
    /// Bounded admission: at most this many queries may be in flight
    /// across the pool at once; the overflow — the newest queries — is
    /// *shed*: returned immediately with status ResourceExhausted and
    /// `shed = true`, never silently dropped (querc_shed_total
    /// {policy="reject_new"}). 0 = unbounded (no admission control).
    size_t max_in_flight = 0;
    /// Tenant-isolation admission stage ahead of the global slot bound
    /// (DESIGN.md §16): per-account token-bucket quotas, then a
    /// weighted-fair split of the free capacity with a guaranteed
    /// minimum for under-quota tenants. Sheds keep the contract above
    /// (in place, ResourceExhausted, `shed = true`) and gain the
    /// account + reason dimensions on querc_shed_total and the journal.
    bool enable_tenant_admission = false;
    /// Quotas/weights per account.
    TenantAdmissionOptions admission;
    /// Per-shard QWorker settings. `worker.application` is derived from
    /// `application` plus the shard index (e.g. "appX/3"), and the shared
    /// embedding cache holds num_shards × `worker.embed_cache_capacity`
    /// entries.
    QWorker::Options worker;
  };

  /// `thread_pool` may be null, in which case the pool owns a private
  /// ThreadPool with one thread per shard. A shared pool (e.g. the
  /// TrainingModule's) can be passed to bound total service threads.
  explicit QWorkerPool(const Options& options,
                       util::ThreadPool* thread_pool = nullptr);

  QWorkerPool(const QWorkerPool&) = delete;
  QWorkerPool& operator=(const QWorkerPool&) = delete;

  /// Deploys `classifier` to every shard (one snapshot swap per shard).
  void Deploy(const std::shared_ptr<const Classifier>& classifier);

  /// Deploys a set of classifiers to every shard, each shard in one
  /// snapshot swap (no shard can expose a partially-applied set).
  void DeployAll(
      const std::vector<std::shared_ptr<const Classifier>>& classifiers);

  /// Undeploys from every shard; returns whether any shard had the task.
  bool Undeploy(const std::string& task_name);

  /// Deploys a fallback classifier to every shard (used when the task's
  /// primary breaker is open or the primary fails; see QWorker).
  void DeployFallback(const std::shared_ptr<const Classifier>& classifier);

  /// Removes a fallback from every shard; returns whether any had it.
  bool UndeployFallback(const std::string& task_name);

  /// Installs the sink on every shard. The sink must be thread-safe: it
  /// is invoked concurrently from all shards.
  void set_database_sink(QWorker::DatabaseSink sink);
  void set_training_sink(QWorker::TrainingSink sink);

  /// Shard a single query by the partition policy and process it inline
  /// on the calling thread (the hot online path: no queueing, no lock on
  /// the classifier read).
  ProcessedQuery Process(const workload::LabeledQuery& query);

  /// Partitions `batch` across shards, computes every query in parallel
  /// on the thread pool (the calling thread participates), then commits
  /// each shard's queries in arrival order, one task per shard. A batch
  /// with one admitted query runs inline on the caller. Results are
  /// returned in the original batch order.
  std::vector<ProcessedQuery> ProcessBatch(const workload::Workload& batch);

  /// Shard index the partition policy routes `query` to. Deterministic
  /// for kByAccount/kByUser; for kRoundRobin this *consumes* a ticket.
  size_t ShardOf(const workload::LabeledQuery& query);

  size_t num_shards() const { return shards_.size(); }
  QWorker& shard(size_t i) { return *shards_[i]; }
  const QWorker& shard(size_t i) const { return *shards_[i]; }

  /// Total queries processed across shards.
  size_t processed_count() const;

  /// Per-shard stats snapshot (processed count, the shard's latency
  /// histogram, lint counts and the shard's `lint_top_n` worst
  /// templates).
  std::vector<ShardStats> Stats(size_t lint_top_n = 3) const;

  /// Service-wide worst templates by lint diagnostics: per-shard
  /// aggregates merged by fingerprint (a template routed to several shards
  /// — e.g. under round-robin — sums across them), worst first.
  std::vector<LintTemplateStats> TopOffendingTemplates(size_t n) const;

  /// Total lint diagnostics across all shards.
  size_t lint_diagnostic_count() const;

  /// Total offending templates displaced from the bounded per-shard
  /// trackers across all shards.
  size_t lint_templates_dropped() const;

  /// Pooled view: every shard's latency histogram merged into one
  /// snapshot, so service-level percentiles reflect all shards.
  obs::HistogramSnapshot MergedLatency() const;

  /// The pool's one embedding cache's counters (all zeros when the cache
  /// is disabled).
  embed::EmbedCacheStats MergedEmbedCacheStats() const;

  /// Every breaker across all shards with its current state (shard order,
  /// sinks before tasks), for `querc stats` and the chaos driver.
  std::vector<std::pair<std::string, CircuitBreaker::State>> BreakerStates()
      const;

  /// Queries shed at admission since construction.
  size_t shed_count() const {
    return shed_count_.load(std::memory_order_relaxed);
  }

  /// Queries currently in flight (admitted, not yet returned).
  size_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

  /// The tenant admission controller, or null when disabled.
  TenantAdmissionController* admission() { return admission_.get(); }
  const TenantAdmissionController* admission() const {
    return admission_.get();
  }

  const std::string& application() const { return options_.application; }

 private:
  /// Tries to reserve `want` admission slots; returns how many were
  /// granted (== `want` when unbounded). Granted slots must be returned
  /// via ReleaseSlots.
  size_t TryAcquireSlots(size_t want);
  void ReleaseSlots(size_t n);

  /// Free global slots right now (SIZE_MAX when unbounded) — the
  /// capacity estimate handed to the tenant controller's fairness stage.
  size_t FreeSlots() const;

  /// A shed marker for `query` (ResourceExhausted, `shed = true`) plus
  /// the shed accounting: metric + journal event. With the tenant
  /// controller active that accounting already happened per account
  /// inside the controller, so only the marker is built.
  ProcessedQuery MakeShed(const workload::LabeledQuery& query);
  /// Marker + pool shed_count_ only (no counters/journal) — the tenant
  /// controller's half of the split above.
  ProcessedQuery MakeShedMarker(const workload::LabeledQuery& query);

  Options options_;
  std::unique_ptr<TenantAdmissionController> admission_;  // null = disabled
  std::unique_ptr<util::ThreadPool> owned_pool_;
  util::ThreadPool* pool_;  // never null
  std::vector<std::unique_ptr<QWorker>> shards_;
  /// Shared by every shard; null when the cache is disabled.
  std::shared_ptr<embed::EmbeddingCache> embed_cache_;
  std::atomic<uint64_t> round_robin_{0};
  std::atomic<size_t> in_flight_{0};
  std::atomic<size_t> shed_count_{0};
};

}  // namespace querc::core

#endif  // QUERC_QUERC_QWORKER_POOL_H_
