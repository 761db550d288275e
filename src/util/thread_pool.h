#ifndef QUERC_UTIL_THREAD_POOL_H_
#define QUERC_UTIL_THREAD_POOL_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "util/lane.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/topology.h"

namespace querc::util {

/// Work-aware worker pool (DESIGN.md §17) used by the QWorker pool's
/// predict fan-out and the training module's batch jobs. Tasks are void()
/// closures queued into one of three priority lanes (util::Lane):
/// interactive > normal > batch, with a starvation bound and
/// deadline-aware escalation.
///
/// Scheduling contract:
///   - Dispatch is strict lane priority: a queued interactive task always
///     runs before a queued normal task, which runs before a queued batch
///     task — except for the two overrides below.
///   - Starvation bound: after `starvation_limit` consecutive dispatches
///     that bypassed a waiting lower-lane task, the next dispatch takes
///     the lowest-priority non-empty lane, so batch work makes progress
///     under a sustained interactive flood (at >= 1/(limit+1) of the
///     dispatch rate).
///   - Deadline escalation: a queued normal/batch task whose absolute
///     deadline is within `escalation_ms` of now (pool clock) is
///     dispatched ahead of every lane — composing with the service's
///     Deadline machinery, which turns expiry into partial results, this
///     spends remaining budget on the work instead of on the queue.
///   - Bounded lanes: with `lane_capacity` > 0 a Submit into a full lane
///     runs the task inline on the submitting thread (caller-runs
///     backpressure — never dropped, never unbounded) and counts it in
///     querc_threadpool_lane_overflow_total{lane=}.
///
/// Telemetry: querc_threadpool_queue_depth / _task_ms / _tasks_total, one
/// series per lane ({lane=...}); the pool-wide figure is the sum over
/// lanes. Gauge updates happen under the queue mutex, in the same
/// critical section as the queue mutation, so a concurrent scrape can
/// never observe a negative or overshot depth.
///
/// Concurrency contract (unchanged from the FIFO pool):
///   - `Submit` tasks must not throw; an escaping exception is caught and
///     logged.
///   - `ParallelFor` tracks its own batch with a completion latch; the
///     calling thread participates, so nested ParallelFor (any lane mix)
///     and concurrent batches are deadlock-free. Helper closures whose
///     batch was fully claimed before they were dequeued are skipped
///     without running, and helpers still queued when the batch drains
///     are purged — a caller-drained batch leaves the queues exactly as
///     it found them.
///   - The first exception thrown by `fn` in a ParallelFor batch is
///     rethrown on the calling thread after the batch completes.
class ThreadPool {
 public:
  /// Monotonic microsecond clock; tests inject a fake for deterministic
  /// escalation walks. Null = steady clock.
  using ClockFn = std::function<int64_t()>;

  /// `deadline_us` value meaning "no deadline".
  static constexpr int64_t kNoDeadline = std::numeric_limits<int64_t>::max();

  struct Options {
    /// Worker count; 0 = DefaultThreadCount().
    size_t num_threads = 0;
    /// Per-lane queue bound; 0 = unbounded. Overflow = caller-runs.
    size_t lane_capacity = 0;
    /// Consecutive lower-lane bypasses before a forced lower-lane
    /// dispatch.
    size_t starvation_limit = 16;
    /// Escalate a queued task once its deadline is within this many ms.
    double escalation_ms = 1.0;
    /// Injectable clock for deadline math (tests); null = steady clock.
    ClockFn clock;
  };

  /// Per-task scheduling parameters for Submit/ParallelFor.
  struct TaskOptions {
    Lane lane = Lane::kNormal;
    /// Absolute deadline on the pool clock (NowUs()); kNoDeadline = none.
    int64_t deadline_us = kNoDeadline;
  };

  /// Legacy constructor: `num_threads` workers (0 clamped to 1, NOT the
  /// machine default — callers wanting machine sizing pass Options or
  /// DefaultThreadCount()).
  explicit ThreadPool(size_t num_threads);

  explicit ThreadPool(const Options& options);

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task on the normal lane.
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Enqueues a task on `lane`.
  void Submit(Lane lane, std::function<void()> task) EXCLUDES(mu_);

  /// Enqueues a task with full scheduling parameters.
  void Submit(const TaskOptions& opts, std::function<void()> task)
      EXCLUDES(mu_);

  /// Blocks until every lane is empty and no task is running. Global: a
  /// caller may also wait out tasks submitted by other threads. Batch
  /// users should prefer `ParallelFor`, which waits on its own latch.
  void WaitIdle() EXCLUDES(mu_);

  size_t num_threads() const { return threads_.size(); }

  /// Tasks currently queued (not yet running) on `lane`.
  size_t queue_depth(Lane lane) const EXCLUDES(mu_);

  /// Microseconds on the pool's clock (steady clock unless injected).
  int64_t NowUs() const;

  /// Runs `fn(i)` for i in [0, n) across the pool and the calling thread
  /// on the normal lane. See the TaskOptions overload.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn)
      EXCLUDES(mu_);

  /// ParallelFor on `lane`.
  void ParallelFor(Lane lane, size_t n, const std::function<void(size_t)>& fn)
      EXCLUDES(mu_);

  /// Runs `fn(i)` for i in [0, n) across the pool and the calling thread,
  /// returning when all n calls have finished. Helper tasks are queued
  /// with `opts` (lane + deadline). The callable is shared by all
  /// workers; it must be thread-safe. Safe to call from inside a pool
  /// worker (the caller participates) and concurrently from several
  /// threads (each batch has its own completion latch). Rethrows the
  /// first exception thrown by `fn` once the batch has drained.
  void ParallelFor(const TaskOptions& opts, size_t n,
                   const std::function<void(size_t)>& fn) EXCLUDES(mu_);

 private:
  /// One queued closure plus its scheduling state. Batch helpers carry
  /// their batch's claim counter so a worker (or the purge path) can
  /// skip them once every index is claimed — the closure keeps the batch
  /// alive, so the raw pointer is valid for the task's lifetime.
  struct QueuedTask {
    std::function<void()> fn;
    Lane lane = Lane::kNormal;
    int64_t deadline_us = kNoDeadline;
    const void* batch_tag = nullptr;
    const std::atomic<size_t>* batch_claimed = nullptr;
    size_t batch_n = 0;
  };

  void SubmitTask(QueuedTask task) EXCLUDES(mu_);
  void PushTaskLocked(QueuedTask task) REQUIRES(mu_);
  /// Picks the lane the next dispatch should pop from (escalation, then
  /// starvation bound, then strict priority). Requires a non-empty queue.
  /// Reads the clock only when a queued task carries a deadline.
  size_t PickLaneLocked() REQUIRES(mu_);
  /// Accounts one task leaving `lane`'s queue (gauges under the lock).
  void PopAccountingLocked(const QueuedTask& task) REQUIRES(mu_);
  /// Removes still-queued helpers of the drained batch `tag`.
  void PurgeBatch(const void* tag) EXCLUDES(mu_);
  void WorkerLoop() EXCLUDES(mu_);

  Options options_;
  mutable Mutex mu_{LockRank::kThreadPool, "threadpool.mu"};
  CondVar work_cv_;
  CondVar idle_cv_;
  std::array<std::deque<QueuedTask>, kNumLanes> queues_ GUARDED_BY(mu_);
  size_t queued_total_ GUARDED_BY(mu_) = 0;
  /// Queued tasks carrying a real deadline — lets the dispatch path skip
  /// the clock read entirely when nothing can escalate.
  size_t deadlined_ GUARDED_BY(mu_) = 0;
  /// Consecutive dispatches that bypassed a waiting lower-lane task.
  size_t starve_skips_ GUARDED_BY(mu_) = 0;
  size_t active_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
  /// Immutable after the constructor returns (workers never touch it).
  std::vector<std::thread> threads_;
};

}  // namespace querc::util

#endif  // QUERC_UTIL_THREAD_POOL_H_
