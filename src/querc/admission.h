#ifndef QUERC_QUERC_ADMISSION_H_
#define QUERC_QUERC_ADMISSION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "querc/resilience.h"
#include "util/concurrent_aggregator.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "workload/workload.h"

namespace querc::core {

/// Why admission shed a query — the `reason` label on
/// querc_shed_total{policy,account,reason}.
enum class ShedReason {
  kQuota = 0,     ///< the tenant's token bucket was empty
  kFairness = 1,  ///< weighted-fair split of a scarce global capacity
  kGlobal = 2,    ///< the pool-wide slot reservation could not cover it
};

/// Stable lowercase label ("quota", "fairness", "global").
const char* ShedReasonName(ShedReason reason);

/// Per-account admission parameters.
struct TenantQuota {
  /// Token-bucket capacity (maximum burst). 0 disables the quota stage
  /// for this tenant — it is only bounded by fairness + the global cap.
  double burst = 0.0;
  /// Sustained refill in tokens (queries) per second.
  double rate_per_sec = 0.0;
  /// Relative weighted-fair share under contention. Clamped to a small
  /// positive floor so a zero/negative weight cannot starve arithmetic.
  double weight = 1.0;
};

struct TenantAdmissionOptions {
  /// Applied to any account without an explicit entry in `tenants`.
  TenantQuota default_quota;
  /// Per-account overrides (quota and/or fair-share weight).
  std::map<std::string, TenantQuota> tenants;
  /// Policy label stamped on this controller's querc_shed_total series;
  /// the default matches the pool's own {policy="reject_new"} series.
  std::string policy_label = "reject_new";
  /// Soft bound on tracked per-account states. Past it, inserting a new
  /// account evicts the least-recently-active tenant with nothing in
  /// flight (drop-counted via evicted_tenants()); when every tenant has
  /// work in flight the bound is allowed to overshoot rather than lose
  /// accounting.
  size_t max_tenants = 1024;
  /// Injectable microsecond clock so bucket refill (and therefore every
  /// admission decision) is deterministic in tests and drills. Null =
  /// the real steady clock.
  ClockFn clock;
};

/// One query's admission verdict.
struct AdmitDecision {
  bool admitted = true;
  /// Valid only when !admitted.
  ShedReason reason = ShedReason::kGlobal;
};

/// Point-in-time per-tenant accounting row (for `querc stats`).
struct TenantAdmissionStats {
  std::string account;
  double tokens = 0.0;  ///< current bucket level (burst == 0 -> unlimited)
  double weight = 1.0;
  size_t in_flight = 0;
  uint64_t admitted = 0;
  uint64_t shed_quota = 0;
  uint64_t shed_fairness = 0;
  uint64_t shed_global = 0;

  uint64_t shed_total() const {
    return shed_quota + shed_fairness + shed_global;
  }
};

/// Per-account admission ahead of the pool's global slot reservation
/// (DESIGN.md §16). Two stages, decided per batch under one lock:
///
///   1. Quota — a token bucket per account (burst + sustained rate). A
///      tenant's queries are admitted head-first up to its tokens; the
///      tail is shed with reason=quota. Refill is driven by the
///      injectable clock, so drills replay bit-identically.
///   2. Fairness — when the quota-admitted demand still exceeds the free
///      global capacity, the capacity is split by weighted max-min
///      fairness (iterative water-filling over per-tenant pending
///      queues). Under-quota tenants are allocated FIRST and each active
///      tenant is guaranteed at least one slot per filling round — the
///      guaranteed-minimum share: an over-quota tenant is always shed
///      before an under-quota tenant is ever touched. The excess is shed
///      with reason=fairness.
///
/// Reason=global is reserved for sheds decided outside the controller:
/// the pool's CAS slot reservation racing a concurrent batch (reported
/// back via OnGlobalShed so per-tenant totals stay complete).
///
/// Every shed is triple-accounted — querc_shed_total{policy,account,
/// reason} counters (cached per tenant; the registry mutex is never on
/// the overload path after first contact), a flight-recorder kShed event
/// labeled with the account (detail = reason), and a bounded
/// ConcurrentAggregator keyed by account so `querc stats` can surface
/// the top-N tenants by shed count. Admitted queries drive the
/// querc_tenant_in_flight{account} gauge until Release().
///
/// Thread-safe: AdmitBatch/AdmitOne/Release/OnGlobalShed may race from
/// every pool caller. admission.mu ranks below the metrics registry and
/// flight recorder (both are touched under it) and is never held while
/// calling back into the pool.
class TenantAdmissionController {
 public:
  explicit TenantAdmissionController(const TenantAdmissionOptions& options);

  /// Decides the whole batch in arrival order: quota per tenant, then a
  /// weighted-fair split of `capacity` (the pool's free global slots;
  /// SIZE_MAX = unbounded, fairness skipped). Returns one decision per
  /// query, index-aligned with `batch`. Every admitted query must be
  /// returned via Release() (or reclassified via OnGlobalShed()).
  std::vector<AdmitDecision> AdmitBatch(const workload::Workload& batch,
                                        size_t capacity) EXCLUDES(mu_);

  /// Single-query admission for the pool's inline Process path. Only the
  /// quota stage applies (a lone query has no batch to be fair within;
  /// the global bound still applies downstream).
  AdmitDecision AdmitOne(const workload::LabeledQuery& query) EXCLUDES(mu_);

  /// Returns `n` of `account`'s admitted slots.
  void Release(const std::string& account, size_t n = 1) EXCLUDES(mu_);

  /// Reclassifies one previously-admitted query as shed with
  /// reason=global: the pool's slot reservation lost a race with a
  /// concurrent batch. Undoes the in-flight accounting and records the
  /// shed against `account`.
  void OnGlobalShed(const std::string& account) EXCLUDES(mu_);

  /// Every tracked tenant's row, account-sorted.
  std::vector<TenantAdmissionStats> Stats() const EXCLUDES(mu_);

  /// The `n` tenants with the most sheds, worst first (count == weight ==
  /// sheds in the aggregator, so Top ranks by shed count; survives tenant
  /// -state eviction since the aggregator is its own bounded store).
  std::vector<util::AggregateEntry> TopSheds(size_t n) const;

  /// Sheds recorded by this controller, per reason and total.
  uint64_t shed_for(ShedReason reason) const {
    return shed_totals_[static_cast<size_t>(reason)].load(
        std::memory_order_relaxed);
  }
  uint64_t shed_total() const {
    return shed_for(ShedReason::kQuota) + shed_for(ShedReason::kFairness) +
           shed_for(ShedReason::kGlobal);
  }

  /// Tenant states displaced by the max_tenants bound.
  uint64_t evicted_tenants() const {
    return evicted_tenants_.load(std::memory_order_relaxed);
  }

  size_t tracked_tenants() const EXCLUDES(mu_);

 private:
  struct TenantState {
    TenantQuota quota;
    double tokens = 0.0;
    int64_t last_refill_us = 0;
    int64_t last_active_us = 0;  // eviction ordering
    size_t in_flight = 0;
    uint64_t admitted = 0;
    uint64_t sheds[3] = {0, 0, 0};  // indexed by ShedReason
    /// Metric series resolved once per tenant; afterwards the overload
    /// path touches only these atomics.
    obs::Gauge* in_flight_gauge = nullptr;
    obs::Counter* shed_counters[3] = {nullptr, nullptr, nullptr};
  };

  /// One tenant's slice of a batch during AdmitBatch.
  struct Group {
    std::string account;
    TenantState* state = nullptr;
    std::vector<size_t> indices;  // batch positions, arrival order
    size_t quota_ok = 0;          // head prefix surviving the bucket
    size_t granted = 0;           // final fairness grant (<= quota_ok)
    bool over_quota = false;      // the bucket clipped this batch
  };

  int64_t NowUs() const;
  TenantState& StateForLocked(const std::string& account, int64_t now_us)
      REQUIRES(mu_);
  void RefillLocked(TenantState& state, int64_t now_us) REQUIRES(mu_);
  void ShedLocked(const std::string& account, TenantState& state,
                  ShedReason reason) REQUIRES(mu_);
  void AdmitLocked(const std::string& account, TenantState& state,
                   size_t n, int64_t now_us) REQUIRES(mu_);
  /// Weighted max-min water-filling of `capacity` over `groups`
  /// (pending = quota_ok - granted); returns the total granted. Each
  /// round hands every still-active tenant at least one slot (the
  /// guaranteed minimum) while capacity allows.
  static size_t AllocateFair(std::vector<Group*>& groups, size_t capacity);

  TenantAdmissionOptions options_;
  mutable util::Mutex mu_{util::LockRank::kAdmission, "admission.mu"};
  std::map<std::string, TenantState> tenants_ GUARDED_BY(mu_);
  std::atomic<uint64_t> shed_totals_[3] = {{0}, {0}, {0}};
  std::atomic<uint64_t> evicted_tenants_{0};
  /// Bounded per-account shed tally for `querc stats` top-N (count and
  /// weight both = sheds).
  util::ConcurrentAggregator sheds_by_account_;
};

/// Bounded account -> CircuitBreaker map: breaker keys gain the account
/// dimension so one tenant's failing sink opens only that tenant's
/// breaker. At `capacity` a new account evicts the least-used breaker,
/// preferring one that is currently closed (an open breaker is live
/// fault evidence) — the ConcurrentAggregator evict-least discipline
/// applied to breakers, with every displacement counted
/// (querc_tenant_breakers_evicted_total).
class TenantBreakerMap {
 public:
  struct Options {
    /// Breaker name prefix; a tenant's breaker is "<prefix>:<account>".
    std::string name_prefix;
    CircuitBreakerOptions breaker;
    size_t capacity = 64;
  };

  explicit TenantBreakerMap(Options options);

  /// The account's breaker, created (possibly evicting) on first use.
  /// The returned shared_ptr keeps the breaker alive across a concurrent
  /// eviction.
  std::shared_ptr<CircuitBreaker> GetOrCreate(const std::string& account)
      EXCLUDES(mu_);

  /// Every resident breaker with its state, account-sorted.
  std::vector<std::pair<std::string, CircuitBreaker::State>> States() const
      EXCLUDES(mu_);

  size_t size() const EXCLUDES(mu_);
  uint64_t evicted() const {
    return evicted_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::shared_ptr<CircuitBreaker> breaker;
    uint64_t uses = 0;
  };

  Options options_;
  mutable util::Mutex mu_{util::LockRank::kTenantBreakers,
                          "qworker.tenant_breakers"};
  std::map<std::string, Entry> breakers_ GUARDED_BY(mu_);
  std::atomic<uint64_t> evicted_{0};
};

}  // namespace querc::core

#endif  // QUERC_QUERC_ADMISSION_H_
