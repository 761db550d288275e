#include "obs/metrics.h"

#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace querc::obs {
namespace {

TEST(Counter, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAddReset) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.Add(-5.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, EmptySnapshotIsAllZero) {
  Histogram h;
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.0);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 0.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(0.99), 0.0);
}

TEST(Histogram, SingleSampleIsExactAtEveryQuantile) {
  Histogram h;
  h.Record(3.7);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.sum, 3.7);
  EXPECT_DOUBLE_EQ(snap.min, 3.7);
  EXPECT_DOUBLE_EQ(snap.max, 3.7);
  // Clamping to [min, max] makes every quantile the sample itself.
  EXPECT_DOUBLE_EQ(snap.Percentile(0.0), 3.7);
  EXPECT_DOUBLE_EQ(snap.p50(), 3.7);
  EXPECT_DOUBLE_EQ(snap.p99(), 3.7);
  EXPECT_DOUBLE_EQ(snap.Percentile(1.0), 3.7);
}

TEST(Histogram, BucketBoundaryMath) {
  // Everything at or below kMinTracked — including junk — lands in the
  // underflow bucket 0.
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(-5.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(Histogram::kMinTracked / 2), 0u);
  EXPECT_EQ(Histogram::BucketIndex(std::nan("")), 0u);

  // The first log bucket starts at kMinTracked; one full octave spans
  // kBucketsPerOctave buckets.
  size_t first = Histogram::BucketIndex(Histogram::kMinTracked * 1.0001);
  size_t octave_up = Histogram::BucketIndex(Histogram::kMinTracked * 2.0001);
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(octave_up - first, Histogram::kBucketsPerOctave);

  // Huge values land in the overflow bucket.
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kNumBuckets - 1);

  // Every value sits within its own bucket's [lower, upper] range, and
  // bounds are consistent between adjacent buckets.
  for (double v : {0.002, 0.1, 1.0, 7.3, 250.0, 9000.0}) {
    size_t i = Histogram::BucketIndex(v);
    EXPECT_GE(v, Histogram::BucketLowerBound(i)) << "value " << v;
    EXPECT_LE(v, Histogram::BucketUpperBound(i)) << "value " << v;
    EXPECT_DOUBLE_EQ(Histogram::BucketLowerBound(i + 1),
                     Histogram::BucketUpperBound(i));
  }
}

TEST(Histogram, PercentilesWithinBucketError) {
  // 100 samples 1..100 ms; log buckets guarantee ~19% relative error.
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Record(static_cast<double>(i));
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  EXPECT_DOUBLE_EQ(snap.sum, 5050.0);
  EXPECT_NEAR(snap.p50(), 50.0, 50.0 * 0.20);
  EXPECT_NEAR(snap.p90(), 90.0, 90.0 * 0.20);
  EXPECT_NEAR(snap.p99(), 99.0, 99.0 * 0.20);
  EXPECT_LE(snap.p50(), snap.p90());
  EXPECT_LE(snap.p90(), snap.p99());
  EXPECT_LE(snap.p99(), snap.max);
}

TEST(Histogram, ResetClearsState) {
  Histogram h;
  h.Record(5.0);
  h.Reset();
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  h.Record(2.0);
  snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.min, 2.0);
}

TEST(HistogramSnapshot, MergeIsPointwise) {
  Histogram a;
  Histogram b;
  a.Record(1.0);
  a.Record(2.0);
  b.Record(100.0);
  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.count, 3u);
  EXPECT_DOUBLE_EQ(merged.sum, 103.0);
  EXPECT_DOUBLE_EQ(merged.min, 1.0);
  EXPECT_DOUBLE_EQ(merged.max, 100.0);

  HistogramSnapshot empty;
  empty.Merge(a.Snapshot());
  EXPECT_EQ(empty.count, 2u);
  EXPECT_DOUBLE_EQ(empty.min, 1.0);
}

// count==0 sentinel audit (pooled-stats paths): an empty side must never
// leak its zero-initialized min/max into a merged view, in either merge
// direction, no matter how many empty shards fold in.
TEST(HistogramSnapshot, MergeEmptySidesNeverPoisonMinMax) {
  Histogram recorded;
  recorded.Record(5.0);
  recorded.Record(9.0);
  HistogramSnapshot empty_shard;  // e.g. an idle QWorker shard

  // empty -> nonempty: a no-op, not min(5.0, 0.0).
  HistogramSnapshot merged = recorded.Snapshot();
  merged.Merge(empty_shard);
  EXPECT_EQ(merged.count, 2u);
  EXPECT_DOUBLE_EQ(merged.min, 5.0);
  EXPECT_DOUBLE_EQ(merged.max, 9.0);

  // nonempty -> empty: adopts the observed extrema wholesale.
  HistogramSnapshot adopted;
  adopted.Merge(recorded.Snapshot());
  EXPECT_DOUBLE_EQ(adopted.min, 5.0);
  EXPECT_DOUBLE_EQ(adopted.max, 9.0);
  EXPECT_DOUBLE_EQ(adopted.mean(), 7.0);

  // A fold over only-empty shards stays empty (and percentiles stay 0).
  HistogramSnapshot all_idle;
  for (int i = 0; i < 3; ++i) all_idle.Merge(HistogramSnapshot{});
  EXPECT_EQ(all_idle.count, 0u);
  EXPECT_DOUBLE_EQ(all_idle.min, 0.0);
  EXPECT_DOUBLE_EQ(all_idle.mean(), 0.0);
  EXPECT_DOUBLE_EQ(all_idle.p99(), 0.0);

  // ...and folding real samples in afterwards still works.
  all_idle.Merge(recorded.Snapshot());
  EXPECT_EQ(all_idle.count, 2u);
  EXPECT_DOUBLE_EQ(all_idle.min, 5.0);
}

// Mismatched bucketings (e.g. a snapshot deserialized from an older
// binary) must not read out of bounds: the overlap merges, counts and
// sums stay total.
TEST(HistogramSnapshot, MergeHandlesMismatchedBucketVectors) {
  HistogramSnapshot wide;
  wide.count = 2;
  wide.sum = 6.0;
  wide.min = 1.0;
  wide.max = 5.0;
  wide.buckets = {1, 0, 1, 0};
  HistogramSnapshot narrow;
  narrow.count = 1;
  narrow.sum = 2.0;
  narrow.min = 2.0;
  narrow.max = 2.0;
  narrow.buckets = {0, 1};
  wide.Merge(narrow);
  EXPECT_EQ(wide.count, 3u);
  EXPECT_DOUBLE_EQ(wide.sum, 8.0);
  EXPECT_EQ(wide.buckets.size(), 4u);
  EXPECT_EQ(wide.buckets[1], 1u);
  EXPECT_DOUBLE_EQ(wide.min, 1.0);
  EXPECT_DOUBLE_EQ(wide.max, 5.0);
}

TEST(MetricsRegistry, SameKeyReturnsSameInstance) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("requests_total");
  Counter& b = registry.GetCounter("requests_total");
  EXPECT_EQ(&a, &b);
  // Different labels are different series.
  Counter& c = registry.GetCounter("requests_total", {{"shard", "0"}});
  EXPECT_NE(&a, &c);
  // Label order does not matter: the registry canonicalizes.
  Counter& d =
      registry.GetCounter("multi", {{"b", "2"}, {"a", "1"}});
  Counter& e =
      registry.GetCounter("multi", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(&d, &e);
}

TEST(MetricsRegistry, CollectFiltersByPrefix) {
  MetricsRegistry registry;
  registry.GetCounter("querc_a_total").Increment();
  registry.GetCounter("other_total").Increment(2);
  registry.GetGauge("querc_depth").Set(3.0);
  registry.GetHistogram("querc_lat_ms").Record(1.0);

  MetricsRegistry::Snapshot all = registry.Collect();
  EXPECT_EQ(all.counters.size(), 2u);

  MetricsRegistry::Snapshot querc = registry.Collect("querc_");
  ASSERT_EQ(querc.counters.size(), 1u);
  EXPECT_EQ(querc.counters[0].name, "querc_a_total");
  EXPECT_EQ(querc.counters[0].value, 1u);
  ASSERT_EQ(querc.gauges.size(), 1u);
  ASSERT_EQ(querc.histograms.size(), 1u);
  EXPECT_EQ(querc.histograms[0].snapshot.count, 1u);
}

TEST(MetricsRegistry, ResetAllZeroesWithoutInvalidating) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("n");
  Histogram& h = registry.GetHistogram("h");
  c.Increment(5);
  h.Record(1.0);
  registry.ResetAll();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.Snapshot().count, 0u);
  // The references stay live and usable.
  c.Increment();
  EXPECT_EQ(registry.GetCounter("n").value(), 1u);
}

TEST(MetricsRegistry, ConcurrentUpdatesAreExact) {
  // 8 threads x 10k increments/records; totals must be exact. Run under
  // QUERC_SANITIZE=thread this also proves the record path is race-free.
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("concurrent_total");
  Histogram& hist = registry.GetHistogram("concurrent_ms");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
        hist.Record(0.5 + t);  // spread across buckets
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 7.5);
}

TEST(MetricsRegistry, ConcurrentRegistrationIsSafe) {
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 100; ++i) {
        registry.GetCounter("same_name", {{"i", std::to_string(i % 10)}})
            .Increment();
      }
    });
  }
  for (auto& th : threads) th.join();
  MetricsRegistry::Snapshot snap = registry.Collect();
  EXPECT_EQ(snap.counters.size(), 10u);
  uint64_t total = 0;
  for (const auto& sample : snap.counters) total += sample.value;
  EXPECT_EQ(total, 800u);
}

}  // namespace
}  // namespace querc::obs
