#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/topology.h"

namespace querc::util {

namespace {

size_t LaneIndex(Lane lane) { return static_cast<size_t>(lane); }

/// Shared by every pool in the process, one series per lane
/// ({lane="interactive"|"normal"|"batch"}); a pool-wide figure is the sum
/// over lanes. All lookups are function-local statics so the hot path
/// never touches the registry mutex; resolving them while holding a
/// pool's mu_ is rank-legal (kThreadPool < kMetricsRegistry).
obs::Gauge& LaneDepthGauge(Lane lane) {
  static const std::array<obs::Gauge*, kNumLanes> gauges = [] {
    std::array<obs::Gauge*, kNumLanes> out{};
    for (size_t i = 0; i < kNumLanes; ++i) {
      out[i] = &obs::MetricsRegistry::Global().GetGauge(
          "querc_threadpool_queue_depth",
          {{"lane", LaneName(static_cast<Lane>(i))}},
          "Tasks submitted to ThreadPools but not yet running");
    }
    return out;
  }();
  return *gauges[LaneIndex(lane)];
}

obs::Histogram& LaneTaskHistogram(Lane lane) {
  static const std::array<obs::Histogram*, kNumLanes> hists = [] {
    std::array<obs::Histogram*, kNumLanes> out{};
    for (size_t i = 0; i < kNumLanes; ++i) {
      out[i] = &obs::MetricsRegistry::Global().GetHistogram(
          "querc_threadpool_task_ms",
          {{"lane", LaneName(static_cast<Lane>(i))}},
          "Execution time of ThreadPool task bodies in milliseconds");
    }
    return out;
  }();
  return *hists[LaneIndex(lane)];
}

obs::Counter& LaneTaskCounter(Lane lane) {
  static const std::array<obs::Counter*, kNumLanes> counters = [] {
    std::array<obs::Counter*, kNumLanes> out{};
    for (size_t i = 0; i < kNumLanes; ++i) {
      out[i] = &obs::MetricsRegistry::Global().GetCounter(
          "querc_threadpool_tasks_total",
          {{"lane", LaneName(static_cast<Lane>(i))}},
          "Tasks executed by ThreadPools");
    }
    return out;
  }();
  return *counters[LaneIndex(lane)];
}

/// Runs a task body with the worker's accounting: timing into the lane's
/// histogram and counter, and the catch-and-log contract for escaping
/// exceptions.
void RunTaskBody(const std::function<void()>& fn, Lane lane) {
  auto start = std::chrono::steady_clock::now();
  try {
    fn();
  } catch (...) {
    // A throwing Submit() task previously escaped into std::terminate.
    // ParallelFor batches capture and rethrow their own exceptions; a
    // bare Submit has no one to rethrow to, so log and keep the worker.
    QUERC_LOG(Error) << "ThreadPool task threw an exception; dropped";
  }
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  LaneTaskHistogram(lane).Record(ms);
  LaneTaskCounter(lane).Increment();
}

/// Shared state of one ParallelFor batch. Heap-allocated and owned via
/// shared_ptr by every shard task *and* the caller, so a worker that
/// wakes up after the batch already drained (its `next` fetch returns
/// >= n) still touches valid memory.
struct Batch {
  explicit Batch(size_t total, const std::function<void(size_t)>& f)
      : n(total), fn(f), ctx(obs::CurrentContext()) {}

  const size_t n;
  /// The caller blocks until the batch drains, so the reference stays
  /// valid for exactly as long as any shard can dereference it.
  const std::function<void(size_t)>& fn;
  /// The caller's trace context at batch creation; every shard adopts it
  /// so spans recorded inside `fn` carry the caller's trace id even when
  /// they run on pool threads.
  const obs::TraceContext ctx;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  Mutex mu{LockRank::kThreadPoolBatch, "threadpool.batch_mu"};
  CondVar cv;
  std::exception_ptr error GUARDED_BY(mu);  // first exception wins

  /// Claims indices until the batch is exhausted. Returns true if this
  /// call finished the batch (done hit n).
  bool RunShard() EXCLUDES(mu) {
    obs::ScopedTraceContext adopt(ctx);
    bool finished = false;
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        fn(i);
      } catch (...) {
        MutexLock lock(&mu);
        if (!error) error = std::current_exception();
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        finished = true;
      }
    }
    return finished;
  }

  void NotifyDone() EXCLUDES(mu) {
    // Empty critical section: pairs with the caller's wait so the
    // notification cannot fire between its predicate check and sleep.
    { MutexLock lock(&mu); }
    cv.NotifyAll();
  }
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads)
    : ThreadPool(Options{num_threads == 0 ? 1 : num_threads}) {}

ThreadPool::ThreadPool(const Options& options) {
  size_t n = options.num_threads != 0 ? options.num_threads
                                      : DefaultThreadCount();
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.push_back(SpawnThread("querc-pool", [this] { WorkerLoop(); }));
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  Submit(TaskOptions{}, std::move(task));
}

void ThreadPool::Submit(Lane lane, std::function<void()> task) {
  Submit(TaskOptions{lane}, std::move(task));
}

void ThreadPool::Submit(const TaskOptions& opts, std::function<void()> task) {
  // Capture the submitter's trace context and re-install it around the
  // task body, so work handed to the pool stays attributed to the query
  // that submitted it.
  obs::TraceContext ctx = obs::CurrentContext();
  if (ctx.valid()) {
    task = [ctx, inner = std::move(task)] {
      obs::ScopedTraceContext adopt(ctx);
      inner();
    };
  }
  QueuedTask queued;
  queued.fn = std::move(task);
  queued.lane = opts.lane;
  SubmitTask(std::move(queued));
}

void ThreadPool::SubmitTask(QueuedTask task) {
  MutexLock lock(&mu_);
  // Gauges move in the same critical section as the queue itself, so a
  // concurrent scrape can never see the depth negative or overshot.
  LaneDepthGauge(task.lane).Add(1.0);
  queues_[LaneIndex(task.lane)].push_back(std::move(task));
  ++queued_total_;
  work_cv_.NotifyOne();
}

void ThreadPool::PopAccountingLocked(const QueuedTask& task) {
  LaneDepthGauge(task.lane).Add(-1.0);
  --queued_total_;
}

size_t ThreadPool::PickLaneLocked() {
  size_t highest = 0;
  while (queues_[highest].empty()) ++highest;
  size_t lowest = kNumLanes - 1;
  while (queues_[lowest].empty()) --lowest;

  // Starvation bound: after kStarvationLimit consecutive dispatches that
  // bypassed a waiting lower-lane task, force one lowest-lane dispatch.
  size_t pick = highest;
  if (highest != lowest && starve_skips_ >= kStarvationLimit) pick = lowest;
  if (pick == lowest) {
    starve_skips_ = 0;
  } else {
    ++starve_skips_;
  }
  return pick;
}

size_t ThreadPool::queue_depth(Lane lane) const {
  MutexLock lock(&mu_);
  return queues_[LaneIndex(lane)].size();
}

void ThreadPool::WaitIdle() {
  MutexLock lock(&mu_);
  idle_cv_.Wait(mu_, [this]() REQUIRES(mu_) {
    mu_.AssertHeld();
    return queued_total_ == 0 && active_ == 0;
  });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  ParallelFor(TaskOptions{}, n, fn);
}

void ThreadPool::ParallelFor(Lane lane, size_t n,
                             const std::function<void(size_t)>& fn) {
  ParallelFor(TaskOptions{lane}, n, fn);
}

void ThreadPool::ParallelFor(const TaskOptions& opts, size_t n,
                             const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  auto batch = std::make_shared<Batch>(n, fn);
  // One helper per pool thread beyond the caller; never more than n - 1
  // since the caller takes a share of the loop itself. The batch adopts
  // the caller's trace context itself, so helpers bypass Submit's wrap.
  size_t helpers = std::min(n - 1, threads_.size());
  for (size_t s = 0; s < helpers; ++s) {
    QueuedTask task;
    task.fn = [batch] {
      if (batch->RunShard()) batch->NotifyDone();
    };
    task.lane = opts.lane;
    task.batch_tag = batch.get();
    task.batch_claimed = &batch->next;
    task.batch_n = n;
    SubmitTask(std::move(task));
  }
  // The calling thread participates: if it is itself a pool worker (a
  // nested ParallelFor) or every worker is busy elsewhere, it can drain
  // the entire batch alone — no deadlock.
  if (batch->RunShard()) batch->NotifyDone();
  {
    MutexLock lock(&batch->mu);
    batch->cv.Wait(batch->mu, [&]() REQUIRES(batch->mu) {
      batch->mu.AssertHeld();
      return batch->done.load(std::memory_order_acquire) == n;
    });
  }
  // The batch has drained; helpers still queued are pure no-ops. Pull
  // them out now (batch->mu released first — it ranks above mu_) so a
  // caller-drained batch leaves the queues exactly as it found them
  // instead of delaying unrelated tasks behind stale closures.
  PurgeBatch(batch.get());
  // Take the exception out of the batch: a helper may still hold the
  // last batch reference, and must not free the exception object this
  // thread is about to rethrow and its caller to handle.
  std::exception_ptr error;
  {
    MutexLock lock(&batch->mu);
    error = std::move(batch->error);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::PurgeBatch(const void* tag) {
  MutexLock lock(&mu_);
  for (auto& queue : queues_) {
    for (auto it = queue.begin(); it != queue.end();) {
      if (it->batch_tag == tag) {
        PopAccountingLocked(*it);
        it = queue.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (queued_total_ == 0 && active_ == 0) idle_cv_.NotifyAll();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    QueuedTask task;
    {
      MutexLock lock(&mu_);
      work_cv_.Wait(mu_, [this]() REQUIRES(mu_) {
        mu_.AssertHeld();
        return stop_ || queued_total_ > 0;
      });
      if (stop_ && queued_total_ == 0) return;
      size_t lane = PickLaneLocked();
      task = std::move(queues_[lane].front());
      queues_[lane].pop_front();
      PopAccountingLocked(task);
      ++active_;
    }
    // Stale-helper fast path: a ParallelFor helper whose batch already
    // claimed every index would run as a no-op; skip the call entirely
    // (the shared_ptr in task.fn still releases its batch reference).
    bool stale = task.batch_claimed != nullptr &&
                 task.batch_claimed->load(std::memory_order_acquire) >=
                     task.batch_n;
    if (!stale) RunTaskBody(task.fn, task.lane);
    {
      MutexLock lock(&mu_);
      --active_;
      if (queued_total_ == 0 && active_ == 0) idle_cv_.NotifyAll();
    }
  }
}

}  // namespace querc::util
