#include "util/thread_pool.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace querc::util {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(500);
  pool.ParallelFor(500, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyQueueReturns) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

// Regression: the old implementation waited on global pool idleness, so a
// ParallelFor issued from *inside* a pool worker blocked a worker that was
// itself needed to drain the queue — a deadlock for any nested parallel
// path (e.g. training jobs reaching the summarizer's parallel loops). The
// caller now participates in its own batch, so nesting always completes.
TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(4, [&pool, &inner_total](size_t) {
    pool.ParallelFor(8, [&inner_total](size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(ThreadPoolTest, NestedParallelForOnSingleThreadPool) {
  ThreadPool pool(1);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(3, [&pool, &inner_total](size_t) {
    pool.ParallelFor(5, [&inner_total](size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 3 * 5);
}

TEST(ThreadPoolTest, ParallelForFromSubmittedTaskCompletes) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.Submit([&pool, &total] {
    pool.ParallelFor(16, [&total](size_t) { total.fetch_add(1); });
  });
  pool.WaitIdle();
  EXPECT_EQ(total.load(), 16);
}

// Regression: WaitIdle-based batches could return while *their own* tasks
// were still running if another thread's batch kept the pool non-idle in
// a lucky interleaving — or block on the other batch's work. Each batch
// now has a private completion latch: when ParallelFor returns, exactly
// its n calls have finished, regardless of concurrent batches.
TEST(ThreadPoolTest, ConcurrentBatchesFromTwoThreadsAreIndependent) {
  ThreadPool pool(3);
  constexpr int kPerBatch = 400;
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  int a_at_return = -1;
  int b_at_return = -1;
  std::thread ta([&] {
    pool.ParallelFor(kPerBatch, [&a](size_t) { a.fetch_add(1); });
    a_at_return = a.load();
  });
  std::thread tb([&] {
    pool.ParallelFor(kPerBatch, [&b](size_t) { b.fetch_add(1); });
    b_at_return = b.load();
  });
  ta.join();
  tb.join();
  // Each caller observed its own batch fully drained at return time.
  EXPECT_EQ(a_at_return, kPerBatch);
  EXPECT_EQ(b_at_return, kPerBatch);
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstTaskException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.ParallelFor(64, [&ran](size_t i) {
      ran.fetch_add(1);
      if (i == 7) throw std::runtime_error("task 7 failed");
    });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 7 failed");
  }
  // The batch still drained: every index ran despite the exception.
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, SubmitTaskExceptionDoesNotKillWorker) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  // Previously an escaping exception left WorkerLoop via std::terminate.
  pool.Submit([] { throw std::runtime_error("boom"); });
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, ParallelForMoreShardsThanIndices) {
  ThreadPool pool(8);
  std::atomic<int> ran{0};
  pool.ParallelFor(2, [&ran](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 2);
}

/// Pool-wide thread-pool telemetry: each family exists only per lane, so
/// a pool-wide figure is the sum over the lane series. Fails the calling
/// test if a series without a lane label shows up.
struct LaneTotals {
  uint64_t tasks = 0;
  uint64_t timed_tasks = 0;
  double queue_depth = 0.0;
};

LaneTotals SumOverLanes() {
  auto snap = obs::MetricsRegistry::Global().Collect("querc_threadpool_");
  auto has_lane = [](const obs::Labels& labels) {
    return labels.size() == 1 && labels[0].first == "lane";
  };
  LaneTotals totals;
  for (const auto& c : snap.counters) {
    if (c.name != "querc_threadpool_tasks_total") continue;
    EXPECT_TRUE(has_lane(c.labels)) << c.name << " without a lane label";
    totals.tasks += c.value;
  }
  for (const auto& h : snap.histograms) {
    if (h.name != "querc_threadpool_task_ms") continue;
    EXPECT_TRUE(has_lane(h.labels)) << h.name << " without a lane label";
    totals.timed_tasks += h.snapshot.count;
  }
  for (const auto& g : snap.gauges) {
    if (g.name != "querc_threadpool_queue_depth") continue;
    EXPECT_TRUE(has_lane(g.labels)) << g.name << " without a lane label";
    totals.queue_depth += g.value;
  }
  return totals;
}

TEST(ThreadPoolTest, PublishesTelemetryToGlobalRegistry) {
  LaneTotals before = SumOverLanes();

  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 25; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();

  EXPECT_EQ(counter.load(), 25);
  LaneTotals after = SumOverLanes();
  EXPECT_EQ(after.tasks, before.tasks + 25);
  EXPECT_EQ(after.timed_tasks, before.timed_tasks + 25);
  // Nothing queued any more, so every lane's depth gauge has drained back.
  EXPECT_DOUBLE_EQ(after.queue_depth, 0.0);
}

// ---------------------------------------------------------------------
// Lane scheduling (DESIGN.md §17). The gate pattern: a blocker task per
// worker pins the pool busy so subsequent submissions queue up, making
// dispatch order fully deterministic once the gate opens.

class Gate {
 public:
  explicit Gate(ThreadPool* pool, size_t workers) {
    for (size_t i = 0; i < workers; ++i) {
      pool->Submit([this] {
        blocked_.fetch_add(1, std::memory_order_release);
        while (!release_.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      });
    }
    while (blocked_.load(std::memory_order_acquire) < workers) {
      std::this_thread::yield();
    }
  }

  void Open() { release_.store(true, std::memory_order_release); }

 private:
  std::atomic<bool> release_{false};
  std::atomic<size_t> blocked_{0};
};

TEST(ThreadPoolLaneTest, InteractiveRunsBeforeQueuedBatch) {
  ThreadPool pool(1);
  Gate gate(&pool, 1);
  std::atomic<int> seq{0};
  int batch_pos = -1;
  int interactive_pos = -1;
  // Batch is submitted FIRST; strict lane priority must still run the
  // interactive task ahead of it.
  pool.Submit(Lane::kBatch, [&] { batch_pos = seq.fetch_add(1); });
  pool.Submit(Lane::kInteractive, [&] { interactive_pos = seq.fetch_add(1); });
  gate.Open();
  pool.WaitIdle();
  EXPECT_EQ(interactive_pos, 0);
  EXPECT_EQ(batch_pos, 1);
}

TEST(ThreadPoolLaneTest, NormalRunsBeforeQueuedBatch) {
  ThreadPool pool(1);
  Gate gate(&pool, 1);
  std::atomic<int> seq{0};
  int batch_pos = -1;
  int normal_pos = -1;
  pool.Submit(Lane::kBatch, [&] { batch_pos = seq.fetch_add(1); });
  pool.Submit([&] { normal_pos = seq.fetch_add(1); });
  gate.Open();
  pool.WaitIdle();
  EXPECT_EQ(normal_pos, 0);
  EXPECT_EQ(batch_pos, 1);
}

TEST(ThreadPoolLaneTest, BatchLaneStarvationBound) {
  ThreadPool pool(1);
  Gate gate(&pool, 1);
  std::atomic<int> seq{0};
  int batch_pos = -1;
  pool.Submit(Lane::kBatch, [&] { batch_pos = seq.fetch_add(1); });
  for (int i = 0; i < 40; ++i) {
    pool.Submit(Lane::kInteractive, [&] { seq.fetch_add(1); });
  }
  gate.Open();
  pool.WaitIdle();
  // Priority holds for exactly kStarvationLimit consecutive bypasses;
  // then the scheduler forces the batch dispatch instead of letting it
  // sit behind all 40 interactive tasks.
  EXPECT_EQ(batch_pos, static_cast<int>(ThreadPool::kStarvationLimit));
}

// Regression: caller-drained ParallelFor batches used to leave up to
// num_threads stale no-op helper closures in the queue, delaying every
// subsequent task (and poisoning lane ordering). The batch now purges
// its still-queued helpers before ParallelFor returns.
TEST(ThreadPoolLaneTest, CallerDrainedParallelForLeavesNoStaleHelpers) {
  ThreadPool pool(2);
  Gate gate(&pool, 2);  // both workers pinned: the caller drains alone
  std::atomic<int> ran{0};
  pool.ParallelFor(8, [&ran](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
  // Immediately after return — before any worker frees up — the queue
  // must be empty: the helpers were purged, not left as stale no-ops.
  EXPECT_EQ(pool.queue_depth(Lane::kNormal), 0u);
  EXPECT_EQ(pool.queue_depth(Lane::kInteractive), 0u);
  EXPECT_EQ(pool.queue_depth(Lane::kBatch), 0u);
  gate.Open();
  pool.WaitIdle();
}

// Regression: the queue-depth gauge used to be updated outside mu_ (after
// push / after pop), so a concurrent scrape could observe a transiently
// negative or overshot depth. Updates now share the queue's critical
// section; a scraper hammering the gauge must never see < 0.
TEST(ThreadPoolLaneTest, QueueDepthGaugeNeverNegativeUnderContention) {
  std::array<obs::Gauge*, kNumLanes> gauges{};
  for (size_t i = 0; i < kNumLanes; ++i) {
    gauges[i] = &obs::MetricsRegistry::Global().GetGauge(
        "querc_threadpool_queue_depth",
        {{"lane", LaneName(static_cast<Lane>(i))}});
  }
  auto pool_depth = [&gauges] {
    double sum = 0.0;
    for (const obs::Gauge* gauge : gauges) sum += gauge->value();
    return sum;
  };
  ThreadPool pool(4);
  std::atomic<bool> done{false};
  double min_seen = 0.0;
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (const obs::Gauge* gauge : gauges) {
        min_seen = std::min(min_seen, gauge->value());
      }
      min_seen = std::min(min_seen, pool_depth());
    }
  });
  constexpr int kSubmitters = 4;
  constexpr int kTasksPer = 2000;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&pool] {
      for (int i = 0; i < kTasksPer; ++i) {
        pool.Submit(static_cast<Lane>(i % kNumLanes), [] {});
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.WaitIdle();
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_GE(min_seen, 0.0);
  EXPECT_DOUBLE_EQ(pool_depth(), 0.0);
}

TEST(ThreadPoolLaneTest, NestedParallelForAcrossLanes) {
  // Interactive batches spawning batch-lane sub-batches (and the
  // reverse) must complete without deadlock — the caller participates in
  // its own batch, and the lock-rank detector (debug/sanitizer builds)
  // checks the mu_ -> batch_mu ordering on every acquisition.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(Lane::kInteractive, 4, [&pool, &total](size_t) {
    pool.ParallelFor(Lane::kBatch, 6, [&total](size_t) {
      total.fetch_add(1);
    });
  });
  EXPECT_EQ(total.load(), 4 * 6);
  pool.ParallelFor(Lane::kBatch, 3, [&pool, &total](size_t) {
    pool.ParallelFor(Lane::kInteractive, 5,
                     [&total](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 4 * 6 + 3 * 5);
}

TEST(ThreadPoolLaneTest, PublishesPerLaneTelemetry) {
  auto& registry = obs::MetricsRegistry::Global();
  auto& interactive_tasks = registry.GetCounter(
      "querc_threadpool_tasks_total", {{"lane", "interactive"}});
  auto& batch_tasks =
      registry.GetCounter("querc_threadpool_tasks_total", {{"lane", "batch"}});
  uint64_t interactive_before = interactive_tasks.value();
  uint64_t batch_before = batch_tasks.value();

  ThreadPool pool(2);
  for (int i = 0; i < 10; ++i) pool.Submit(Lane::kInteractive, [] {});
  for (int i = 0; i < 7; ++i) pool.Submit(Lane::kBatch, [] {});
  pool.WaitIdle();

  EXPECT_EQ(interactive_tasks.value(), interactive_before + 10);
  EXPECT_EQ(batch_tasks.value(), batch_before + 7);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("querc_threadpool_queue_depth", {{"lane", "batch"}})
          .value(),
      0.0);
  EXPECT_DOUBLE_EQ(registry
                       .GetGauge("querc_threadpool_queue_depth",
                                 {{"lane", "interactive"}})
                       .value(),
                   0.0);
  EXPECT_GE(registry
                .GetHistogram("querc_threadpool_task_ms", {{"lane", "batch"}})
                .Snapshot()
                .count,
            7u);
}

// TSan stress: mixed-lane submissions and nested cross-lane batches from
// several threads at once exercise every queue/gauge/latch path under
// the race detector.
TEST(ThreadPoolLaneTest, MixedLaneStress) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::thread> drivers;
  drivers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    drivers.emplace_back([&pool, &total, t] {
      for (int round = 0; round < 30; ++round) {
        pool.Submit(static_cast<Lane>(round % kNumLanes),
                    [&total] { total.fetch_add(1); });
        if (round % 3 == t % 3) {
          pool.ParallelFor(static_cast<Lane>((round + t) % kNumLanes), 8,
                           [&total](size_t) { total.fetch_add(1); });
        }
      }
    });
  }
  for (auto& d : drivers) d.join();
  pool.WaitIdle();
  EXPECT_EQ(total.load(), 4 * 30 + 4 * 10 * 8);
}

}  // namespace
}  // namespace querc::util
