#ifndef QUERC_UTIL_THREAD_POOL_H_
#define QUERC_UTIL_THREAD_POOL_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/lane.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/topology.h"

namespace querc::util {

/// Laned worker pool (DESIGN.md §17) used by the QWorker pool's predict
/// fan-out and the training module's batch jobs. Tasks are void()
/// closures queued into one of three priority lanes (util::Lane):
/// interactive > normal > batch, with a starvation bound.
///
/// Scheduling contract:
///   - Dispatch is strict lane priority: a queued interactive task always
///     runs before a queued normal task, which runs before a queued batch
///     task — except for the starvation bound. Within a lane, FIFO.
///   - Starvation bound: after kStarvationLimit consecutive dispatches
///     that bypassed a waiting lower-lane task, the next dispatch takes
///     the lowest-priority non-empty lane, so batch work makes progress
///     under a sustained interactive flood (at >= 1/(limit+1) of the
///     dispatch rate).
///   - Lanes are unbounded: Submit always queues.
///
/// Telemetry: querc_threadpool_queue_depth / _task_ms / _tasks_total, one
/// series per lane ({lane=...}); the pool-wide figure is the sum over
/// lanes. Gauge updates happen under the queue mutex, in the same
/// critical section as the queue mutation, so a concurrent scrape can
/// never observe a negative or overshot depth.
///
/// Concurrency contract:
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
  /// Consecutive lower-lane bypasses before a forced lower-lane dispatch.
  static constexpr size_t kStarvationLimit = 16;

  struct Options {
    /// Worker count; 0 = DefaultThreadCount().
    size_t num_threads = 0;
  };

  /// Per-task scheduling parameters for Submit/ParallelFor.
  struct TaskOptions {
    Lane lane = Lane::kNormal;
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

  /// Runs `fn(i)` for i in [0, n) across the pool and the calling thread
  /// on the normal lane. See the TaskOptions overload.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn)
      EXCLUDES(mu_);

  /// ParallelFor on `lane`.
  void ParallelFor(Lane lane, size_t n, const std::function<void(size_t)>& fn)
      EXCLUDES(mu_);

  /// Runs `fn(i)` for i in [0, n) across the pool and the calling thread,
  /// returning when all n calls have finished. Helper tasks are queued
  /// on `opts.lane`. The callable is shared by all workers; it must be
  /// thread-safe. Safe to call from inside a pool worker (the caller
  /// participates) and concurrently from several threads (each batch has
  /// its own completion latch). Rethrows the first exception thrown by
  /// `fn` once the batch has drained.
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
    const void* batch_tag = nullptr;
    const std::atomic<size_t>* batch_claimed = nullptr;
    size_t batch_n = 0;
  };

  void SubmitTask(QueuedTask task) EXCLUDES(mu_);
  /// Picks the lane the next dispatch should pop from (starvation bound,
  /// then strict priority). Requires a non-empty queue.
  size_t PickLaneLocked() REQUIRES(mu_);
  /// Accounts one task leaving `lane`'s queue (gauges under the lock).
  void PopAccountingLocked(const QueuedTask& task) REQUIRES(mu_);
  /// Removes still-queued helpers of the drained batch `tag`.
  void PurgeBatch(const void* tag) EXCLUDES(mu_);
  void WorkerLoop() EXCLUDES(mu_);

  mutable Mutex mu_{LockRank::kThreadPool, "threadpool.mu"};
  CondVar work_cv_;
  CondVar idle_cv_;
  std::array<std::deque<QueuedTask>, kNumLanes> queues_ GUARDED_BY(mu_);
  size_t queued_total_ GUARDED_BY(mu_) = 0;
  /// Consecutive dispatches that bypassed a waiting lower-lane task.
  size_t starve_skips_ GUARDED_BY(mu_) = 0;
  size_t active_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
  /// Immutable after the constructor returns (workers never touch it).
  std::vector<std::thread> threads_;
};

}  // namespace querc::util

#endif  // QUERC_UTIL_THREAD_POOL_H_
