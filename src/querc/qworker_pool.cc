#include "querc/qworker_pool.h"

#include <algorithm>
#include <limits>
#include <map>

#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/stopwatch.h"

namespace querc::core {

namespace {

obs::Histogram& BatchHistogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::Global().GetHistogram(
      "querc_pool_batch_ms", {},
      "Wall-clock time of one QWorkerPool::ProcessBatch fan-out");
  return hist;
}

obs::Counter& BatchCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "querc_pool_batches_total", {},
      "Batches fanned out across QWorkerPool shards");
  return counter;
}

/// Cached in a function-local static: under overload every rejected
/// query lands here, which is exactly when the registry mutex must not be
/// on the path.
obs::Counter& ShedCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "querc_shed_total", {{"policy", "reject_new"}},
      "Queries shed at pool admission, per shed policy");
  return counter;
}

obs::Gauge& InFlightGauge() {
  static obs::Gauge& gauge = obs::MetricsRegistry::Global().GetGauge(
      "querc_pool_in_flight", {},
      "Queries currently admitted and in flight across the pool");
  return gauge;
}

obs::Counter& FanOutErrorsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "querc_pool_fan_out_errors_total", {},
      "Shard fan-out tasks that failed as a whole (pool.fan_out "
      "failpoint); their queries carry the error status");
  return counter;
}

/// FNV-1a 64-bit: stable across runs and platforms (std::hash is not
/// guaranteed to be), so shard assignment is reproducible.
uint64_t HashKey(const std::string& key) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

QWorkerPool::QWorkerPool(const Options& options,
                         util::ThreadPool* thread_pool)
    : options_(options) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  if (options_.enable_tenant_admission) {
    admission_ =
        std::make_unique<TenantAdmissionController>(options_.admission);
  }
  if (thread_pool == nullptr) {
    util::ThreadPool::Options pool_options;
    pool_options.num_threads =
        options_.threads != 0
            ? options_.threads
            : std::min(options_.num_shards, util::DefaultThreadCount());
    owned_pool_ = std::make_unique<util::ThreadPool>(pool_options);
    pool_ = owned_pool_.get();
  } else {
    pool_ = thread_pool;
  }
  if (options_.worker.embed_cache_capacity > 0) {
    // One cache for the whole pool: the capacity is a per-shard budget,
    // so the memory bound matches N private caches, but a template is
    // embedded once however the partition spreads it.
    embed::EmbeddingCache::Options cache_options;
    cache_options.capacity =
        options_.num_shards * options_.worker.embed_cache_capacity;
    embed_cache_ = std::make_shared<embed::EmbeddingCache>(cache_options);
  }
  shards_.reserve(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    QWorker::Options worker = options_.worker;
    worker.application = options_.application + "/" + std::to_string(s);
    shards_.push_back(std::make_unique<QWorker>(worker, embed_cache_));
  }
}

void QWorkerPool::Deploy(const std::shared_ptr<const Classifier>& classifier) {
  for (auto& shard : shards_) shard->Deploy(classifier);
}

void QWorkerPool::DeployAll(
    const std::vector<std::shared_ptr<const Classifier>>& classifiers) {
  for (auto& shard : shards_) shard->DeployAll(classifiers);
}

bool QWorkerPool::Undeploy(const std::string& task_name) {
  bool any = false;
  for (auto& shard : shards_) any = shard->Undeploy(task_name) || any;
  return any;
}

void QWorkerPool::DeployFallback(
    const std::shared_ptr<const Classifier>& classifier) {
  for (auto& shard : shards_) shard->DeployFallback(classifier);
}

bool QWorkerPool::UndeployFallback(const std::string& task_name) {
  bool any = false;
  for (auto& shard : shards_) any = shard->UndeployFallback(task_name) || any;
  return any;
}

void QWorkerPool::set_database_sink(QWorker::DatabaseSink sink) {
  for (auto& shard : shards_) shard->set_database_sink(sink);
}

void QWorkerPool::set_training_sink(QWorker::TrainingSink sink) {
  for (auto& shard : shards_) shard->set_training_sink(sink);
}

size_t QWorkerPool::ShardOf(const workload::LabeledQuery& query) {
  switch (options_.partition) {
    case Partition::kByAccount:
      return HashKey(query.account) % shards_.size();
    case Partition::kByUser:
      return HashKey(query.user) % shards_.size();
    case Partition::kRoundRobin:
      return round_robin_.fetch_add(1, std::memory_order_relaxed) %
             shards_.size();
  }
  return 0;
}

size_t QWorkerPool::TryAcquireSlots(size_t want) {
  if (options_.max_in_flight == 0 || want == 0) {
    in_flight_.fetch_add(want, std::memory_order_relaxed);
    InFlightGauge().Add(static_cast<double>(want));
    return want;
  }
  size_t cur = in_flight_.load(std::memory_order_relaxed);
  for (;;) {
    size_t free = options_.max_in_flight > cur
                      ? options_.max_in_flight - cur
                      : 0;
    size_t got = std::min(want, free);
    if (got == 0) return 0;
    if (in_flight_.compare_exchange_weak(cur, cur + got,
                                         std::memory_order_relaxed)) {
      InFlightGauge().Add(static_cast<double>(got));
      return got;
    }
  }
}

void QWorkerPool::ReleaseSlots(size_t n) {
  if (n == 0) return;
  in_flight_.fetch_sub(n, std::memory_order_relaxed);
  InFlightGauge().Add(-static_cast<double>(n));
}

size_t QWorkerPool::FreeSlots() const {
  if (options_.max_in_flight == 0) {
    return std::numeric_limits<size_t>::max();
  }
  size_t cur = in_flight_.load(std::memory_order_relaxed);
  return options_.max_in_flight > cur ? options_.max_in_flight - cur : 0;
}

ProcessedQuery QWorkerPool::MakeShedMarker(
    const workload::LabeledQuery& query) {
  ProcessedQuery shed;
  shed.query = query;
  shed.shed = true;
  shed.status = util::Status::ResourceExhausted("pool admission: shed");
  shed_count_.fetch_add(1, std::memory_order_relaxed);
  return shed;
}

ProcessedQuery QWorkerPool::MakeShed(const workload::LabeledQuery& query) {
  ProcessedQuery shed = MakeShedMarker(query);
  ShedCounter().Increment();
  obs::FlightRecorder::Global().RecordInstant(obs::EventKind::kShed,
                                              "reject_new");
  return shed;
}

ProcessedQuery QWorkerPool::Process(const workload::LabeledQuery& query) {
  // QWorker::Process never throws, so the slots always come back.
  if (admission_) {
    AdmitDecision decision = admission_->AdmitOne(query);
    if (!decision.admitted) return MakeShedMarker(query);
    if (TryAcquireSlots(1) == 0) {
      admission_->OnGlobalShed(query.account);
      return MakeShedMarker(query);
    }
    ProcessedQuery out = shards_[ShardOf(query)]->Process(query);
    ReleaseSlots(1);
    admission_->Release(query.account);
    return out;
  }
  if (TryAcquireSlots(1) == 0) return MakeShed(query);
  ProcessedQuery out = shards_[ShardOf(query)]->Process(query);
  ReleaseSlots(1);
  return out;
}

std::vector<ProcessedQuery> QWorkerPool::ProcessBatch(
    const workload::Workload& batch) {
  std::vector<ProcessedQuery> out(batch.size());
  if (batch.empty()) return out;
  // The batch trace owns the trace id (unless an outer trace is already
  // active); both stages below adopt it via ParallelFor, so every
  // worker-thread span lands in this one cross-thread trace.
  obs::Trace trace("pool_process_batch");
  util::Stopwatch timer;
  // Admission pipeline (DESIGN.md §16): [tenant quota -> weighted
  // fairness ->] global slots -> shard fan-out. Shed queries are returned
  // IN PLACE (each marker at its query's original batch position, order
  // preserved) with `shed = true` and ResourceExhausted — never silently
  // dropped.
  std::vector<size_t> admitted_idx;
  admitted_idx.reserve(batch.size());
  if (admission_) {
    // Stages 1+2 — per-tenant quota and the weighted-fair split of the
    // free capacity. Sheds may land mid-batch (one tenant's tail is
    // another tenant's head), hence index lists instead of a range.
    std::vector<AdmitDecision> decisions =
        admission_->AdmitBatch(batch, FreeSlots());
    for (size_t i = 0; i < batch.size(); ++i) {
      if (decisions[i].admitted) {
        admitted_idx.push_back(i);
      } else {
        out[i] = MakeShedMarker(batch[i]);
      }
    }
    // Stage 3 — the global reservation. It can still grant less than the
    // controller allocated when a concurrent batch raced the capacity
    // estimate; the overflow — the newest admitted queries — is shed
    // (reason=global), markers still at their original positions.
    size_t granted = TryAcquireSlots(admitted_idx.size());
    for (size_t k = granted; k < admitted_idx.size(); ++k) {
      size_t i = admitted_idx[k];
      admission_->OnGlobalShed(batch[i].account);
      out[i] = MakeShedMarker(batch[i]);
    }
    admitted_idx.resize(granted);
  } else {
    // Global-only admission: reserve as many slots as fit and shed the
    // rest, the batch's tail (the newest arrivals).
    size_t admitted = TryAcquireSlots(batch.size());
    for (size_t i = 0; i < admitted; ++i) admitted_idx.push_back(i);
    for (size_t i = admitted; i < batch.size(); ++i) {
      out[i] = MakeShed(batch[i]);
    }
  }
  if (admitted_idx.empty()) {
    BatchHistogram().Record(timer.ElapsedMillis());
    BatchCounter().Increment();
    return out;
  }
  // Partition the admitted queries so each shard's sub-stream keeps its
  // arrival order (windowed tasks depend on per-shard ordering).
  std::vector<std::vector<size_t>> by_shard(shards_.size());
  {
    static obs::Histogram& hist = obs::StageHistogram("pool_partition");
    obs::Span span(&hist, "pool_partition");
    for (size_t i : admitted_idx) {
      by_shard[ShardOf(batch[i])].push_back(i);
    }
  }
  // Neither a failed shard task nor a poisoned query may lose queries:
  // a live shard whose task fails (the pool.fan_out failpoint) gives each
  // of its queries the task's status before any of them is computed, the
  // per-query guards inside Compute and Commit catch the rest, and the
  // other shards are unaffected. The surviving shards' queries, in shard
  // then arrival order, are the work of both stages below.
  struct Work {
    size_t shard;
    size_t index;  // into `batch`
  };
  std::vector<Work> work;
  work.reserve(admitted_idx.size());
  std::vector<size_t> shard_begin;  // each committing shard's first item
  for (size_t s = 0; s < by_shard.size(); ++s) {
    if (by_shard[s].empty()) continue;
    util::Status task_status = util::MaybeFail("pool.fan_out");
    if (!task_status.ok()) {
      FanOutErrorsCounter().Increment();
      for (size_t i : by_shard[s]) {
        out[i].query = batch[i];
        out[i].status = task_status;
      }
      continue;
    }
    shard_begin.push_back(work.size());
    for (size_t i : by_shard[s]) work.push_back({s, i});
  }
  shard_begin.push_back(work.size());
  if (work.size() == 1) {
    // A lone query runs inline: two stage barriers would only add wait.
    out[work[0].index] = shards_[work[0].shard]->Process(batch[work[0].index]);
  } else if (!work.empty()) {
    // Predict traffic rides the interactive lane so a concurrent training
    // or advisor flood on the batch lane cannot queue ahead of it.
    // Compute stage: one item per query, pulled from the batch's shared
    // counter by every thread, the caller first. It touches only
    // per-query state and thread-safe shared state (snapshots, the
    // embedding cache, counters), so a shard holding most of the batch
    // no longer sets its length.
    std::vector<ComputedQuery> computed(work.size());
    pool_->ParallelFor(util::Lane::kInteractive, work.size(), [&](size_t k) {
      obs::Trace trace("qworker_compute");
      computed[k] = shards_[work[k].shard]->Compute(batch[work[k].index]);
    });
    // Commit stage: one task per shard, committing its queries in arrival
    // order (the window and the sinks see each shard's sub-stream as it
    // arrived).
    pool_->ParallelFor(
        util::Lane::kInteractive, shard_begin.size() - 1, [&](size_t t) {
          for (size_t k = shard_begin[t]; k < shard_begin[t + 1]; ++k) {
            obs::Trace trace("qworker_commit");
            size_t i = work[k].index;
            out[i] = shards_[work[k].shard]->Commit(batch[i],
                                                    std::move(computed[k]));
          }
        });
  }
  ReleaseSlots(admitted_idx.size());
  if (admission_) {
    // Per-tenant release, batched per account to keep the controller's
    // lock off the per-query path.
    std::map<std::string, size_t> per_account;
    for (size_t i : admitted_idx) ++per_account[batch[i].account];
    for (const auto& [account, n] : per_account) {
      admission_->Release(account, n);
    }
  }
  BatchHistogram().Record(timer.ElapsedMillis());
  BatchCounter().Increment();
  return out;
}

size_t QWorkerPool::processed_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->processed_count();
  return total;
}

std::vector<ShardStats> QWorkerPool::Stats(size_t lint_top_n) const {
  std::vector<ShardStats> stats;
  stats.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    ShardStats one;
    one.shard = s;
    one.processed = shards_[s]->processed_count();
    one.num_classifiers = shards_[s]->num_classifiers();
    one.histogram = shards_[s]->latency_snapshot();
    one.lint_diagnostics = shards_[s]->lint_diagnostic_count();
    one.lint_templates_dropped = shards_[s]->lint_templates_dropped();
    one.top_offending_templates = shards_[s]->TopOffendingTemplates(lint_top_n);
    stats.push_back(one);
  }
  return stats;
}

std::vector<LintTemplateStats> QWorkerPool::TopOffendingTemplates(
    size_t n) const {
  // Merge per-shard aggregates by fingerprint: under round-robin one
  // template's instances spread across shards and must sum back together.
  std::map<std::string, LintTemplateStats> merged;
  for (const auto& shard : shards_) {
    for (LintTemplateStats& t :
         shard->TopOffendingTemplates(std::numeric_limits<size_t>::max())) {
      auto it = merged.find(t.fingerprint);
      if (it == merged.end()) {
        merged.emplace(t.fingerprint, std::move(t));
      } else {
        // Total merge — all fields, one function (LintTemplateStats::
        // Merge), so the cross-shard view can never drift field-by-field
        // from the struct definition.
        it->second.Merge(t);
      }
    }
  }
  std::vector<LintTemplateStats> out;
  out.reserve(merged.size());
  for (auto& [fingerprint, stats] : merged) out.push_back(std::move(stats));
  std::sort(out.begin(), out.end(),
            [](const LintTemplateStats& a, const LintTemplateStats& b) {
              if (a.diagnostics != b.diagnostics) {
                return a.diagnostics > b.diagnostics;
              }
              return a.instances > b.instances;
            });
  if (out.size() > n) out.resize(n);
  return out;
}

size_t QWorkerPool::lint_diagnostic_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->lint_diagnostic_count();
  return total;
}

size_t QWorkerPool::lint_templates_dropped() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->lint_templates_dropped();
  return total;
}

std::vector<std::pair<std::string, CircuitBreaker::State>>
QWorkerPool::BreakerStates() const {
  std::vector<std::pair<std::string, CircuitBreaker::State>> out;
  for (const auto& shard : shards_) {
    auto states = shard->BreakerStates();
    out.insert(out.end(), states.begin(), states.end());
  }
  return out;
}

obs::HistogramSnapshot QWorkerPool::MergedLatency() const {
  obs::HistogramSnapshot merged;
  for (const auto& shard : shards_) {
    merged.Merge(shard->latency_snapshot());
  }
  return merged;
}

embed::EmbedCacheStats QWorkerPool::MergedEmbedCacheStats() const {
  return embed_cache_ ? embed_cache_->Stats() : embed::EmbedCacheStats{};
}

}  // namespace querc::core
