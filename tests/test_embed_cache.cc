#include "embed/embed_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "embed/doc2vec.h"
#include "embed/feature_embedder.h"
#include "ml/knn.h"
#include "querc/qworker.h"
#include "querc/qworker_pool.h"
#include "workload/workload.h"

namespace querc::embed {
namespace {

/// Deterministic embedder that counts how many times Embed actually runs
/// — the probe for memoization and single-flight guarantees.
class CountingEmbedder : public Embedder {
 public:
  util::Status Train(const std::vector<std::vector<std::string>>&) override {
    return util::Status::OK();
  }
  nn::Vec Embed(const std::vector<std::string>& words) const override {
    calls.fetch_add(1, std::memory_order_relaxed);
    nn::Vec v(4, 0.0);
    for (size_t i = 0; i < words.size(); ++i) {
      v[i % 4] += static_cast<double>(words[i].size());
    }
    return v;
  }
  size_t dim() const override { return 4; }
  std::string name() const override { return "counting"; }

  mutable std::atomic<int> calls{0};
};

nn::Vec ComputeFor(const std::string& token) {
  return nn::Vec(3, static_cast<double>(token.size()));
}

TEST(EmbedCacheTest, KeyForNamespacesByInstanceAndTokenBoundaries) {
  CountingEmbedder a;
  CountingEmbedder b;
  std::vector<std::string> words = {"SELECT", "x"};
  EXPECT_NE(EmbeddingCache::KeyFor(a, words),
            EmbeddingCache::KeyFor(b, words));
  EXPECT_EQ(EmbeddingCache::KeyFor(a, words),
            EmbeddingCache::KeyFor(a, words));
  // Token boundaries must survive the join: {"ab","c"} != {"a","bc"}.
  EXPECT_NE(EmbeddingCache::KeyFor(a, {"ab", "c"}),
            EmbeddingCache::KeyFor(a, {"a", "bc"}));
}

TEST(EmbedCacheTest, CopyAndMoveGetFreshInstanceIds) {
  // A copied or moved embedder is a distinct object whose tables may later
  // diverge, so it must not inherit the original's cache-key namespace.
  FeatureEmbedder a{FeatureEmbedder::Options{}};
  FeatureEmbedder copy(a);
  EXPECT_NE(a.instance_id(), copy.instance_id());
  FeatureEmbedder moved(std::move(copy));
  EXPECT_NE(a.instance_id(), moved.instance_id());
}

TEST(EmbedCacheTest, MemoizesAndCountsHits) {
  EmbeddingCache cache(EmbeddingCache::Options{});
  int computes = 0;
  auto compute = [&] {
    ++computes;
    return ComputeFor("k1");
  };
  auto first = cache.GetOrCompute("k1", compute);
  auto second = cache.GetOrCompute("k1", compute);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(first.get(), second.get());  // literally the same vector
  EmbedCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_ratio(), 0.5);
}

TEST(EmbedCacheTest, EvictsLeastRecentlyUsed) {
  EmbeddingCache::Options options;
  options.capacity = 2;
  options.shards = 1;
  EmbeddingCache cache(options);
  cache.GetOrCompute("a", [] { return ComputeFor("a"); });
  cache.GetOrCompute("b", [] { return ComputeFor("b"); });
  // Refresh "a" so "b" is the LRU victim.
  cache.GetOrCompute("a", [] { return ComputeFor("a"); });
  cache.GetOrCompute("c", [] { return ComputeFor("c"); });
  EXPECT_EQ(cache.Stats().evictions, 1u);
  EXPECT_NE(cache.Peek("a"), nullptr);
  EXPECT_EQ(cache.Peek("b"), nullptr);
  EXPECT_NE(cache.Peek("c"), nullptr);
}

TEST(EmbedCacheTest, EvictedValueStaysValidForHolders) {
  EmbeddingCache::Options options;
  options.capacity = 1;
  options.shards = 1;
  EmbeddingCache cache(options);
  auto held = cache.GetOrCompute("a", [] { return ComputeFor("a"); });
  cache.GetOrCompute("b", [] { return ComputeFor("b"); });  // evicts "a"
  EXPECT_EQ(cache.Peek("a"), nullptr);
  EXPECT_EQ(*held, ComputeFor("a"));  // snapshot outlives eviction
}

TEST(EmbedCacheTest, ClearDropsEntriesButKeepsCounters) {
  EmbeddingCache cache(EmbeddingCache::Options{});
  cache.GetOrCompute("a", [] { return ComputeFor("a"); });
  cache.GetOrCompute("a", [] { return ComputeFor("a"); });
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EmbedCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(EmbedCacheTest, StatsMergeSumsPointwise) {
  EmbedCacheStats a{10, 5, 1, 3, 16};
  EmbedCacheStats b{2, 3, 0, 1, 16};
  a.Merge(b);
  EXPECT_EQ(a.hits, 12u);
  EXPECT_EQ(a.misses, 8u);
  EXPECT_EQ(a.evictions, 1u);
  EXPECT_EQ(a.size, 4u);
  EXPECT_EQ(a.capacity, 32u);
  EXPECT_DOUBLE_EQ(a.hit_ratio(), 0.6);
}

TEST(EmbedCacheTest, SingleFlightStampedeComputesExactlyOnce) {
  // N threads miss on the same new template simultaneously: single-flight
  // must coalesce them onto ONE underlying compute; the rest share the
  // result (and count as hits — they ran no inference).
  EmbeddingCache cache(EmbeddingCache::Options{});
  std::atomic<int> computes{0};
  constexpr int kThreads = 16;
  std::vector<std::shared_ptr<const nn::Vec>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[t] = cache.GetOrCompute("stampede", [&] {
        computes.fetch_add(1, std::memory_order_relaxed);
        // Widen the race window so waiters really do pile up in-flight.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return ComputeFor("stampede");
      });
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(computes.load(), 1);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(results[t], nullptr);
    EXPECT_EQ(results[t].get(), results[0].get());
  }
  EmbedCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads - 1));
}

TEST(EmbedCacheTest, FailedComputeDoesNotPoisonKey) {
  EmbeddingCache cache(EmbeddingCache::Options{});
  EXPECT_THROW(cache.GetOrCompute(
                   "k", []() -> nn::Vec { throw std::runtime_error("boom"); }),
               std::runtime_error);
  EXPECT_EQ(cache.Peek("k"), nullptr);
  // The key is immediately usable again.
  auto value = cache.GetOrCompute("k", [] { return ComputeFor("k"); });
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, ComputeFor("k"));
}

TEST(EmbedCacheTest, WaitersSurviveOwnerFailure) {
  // The owner's compute throws while waiters are coalesced on its flight:
  // each waiter must fall back to its own compute and still get a value.
  EmbeddingCache cache(EmbeddingCache::Options{});
  std::atomic<int> attempts{0};
  constexpr int kThreads = 8;
  std::atomic<int> successes{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      try {
        auto v = cache.GetOrCompute("flaky", [&]() -> nn::Vec {
          // The first attempt (the owner) fails after a delay; waiter
          // fallbacks succeed.
          if (attempts.fetch_add(1, std::memory_order_relaxed) == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            throw std::runtime_error("owner failed");
          }
          return ComputeFor("flaky");
        });
        if (v != nullptr) successes.fetch_add(1);
      } catch (const std::runtime_error&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(successes.load() + failures.load(), kThreads);
  // Exactly the threads that ran the throwing first attempt failed.
  EXPECT_GE(successes.load(), 1);
}

TEST(EmbedCacheTest, ConcurrentDistinctKeysAllComplete) {
  EmbeddingCache::Options options;
  options.capacity = 64;
  options.shards = 8;
  EmbeddingCache cache(options);
  constexpr int kThreads = 8;
  constexpr int kKeys = 32;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        for (int k = 0; k < kKeys; ++k) {
          std::string key = "key" + std::to_string(k);
          auto v = cache.GetOrCompute(key, [&] { return ComputeFor(key); });
          ASSERT_NE(v, nullptr);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EmbedCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.lookups(),
            static_cast<uint64_t>(kThreads) * 50 * kKeys);
  EXPECT_EQ(stats.size, static_cast<size_t>(kKeys));
}

// Striped-stats stress (runs under TSan in the verify matrix): writers
// hammer the cache through hits, misses, and evictions while a scraper
// concurrently merges the per-shard counters via Stats(). The merged view
// must be tearing-free while racing and exact at quiescence — no update
// lost to the striping or to the two-phase merge.
TEST(EmbedCacheStressTest, ConcurrentStatsScrapeLosesNoUpdates) {
  EmbeddingCache::Options options;
  options.capacity = 32;  // small: forces steady eviction traffic
  options.shards = 4;
  EmbeddingCache cache(options);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 4000;
  std::atomic<uint64_t> computes{0};
  std::atomic<bool> stop{false};

  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      EmbedCacheStats s = cache.Stats();
      // Invariants that must hold mid-flight on any consistent-enough
      // snapshot: sizes within the union capacity, counters monotonic
      // (never torn into garbage).
      EXPECT_LE(s.size, s.capacity);
      EXPECT_LE(s.hits, s.lookups());
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        // 50% hot working set (hits), 50% per-thread cold keys (misses
        // that evict).
        std::string key = (i % 2 == 0)
                              ? "hot" + std::to_string(i % 8)
                              : "cold" + std::to_string(t) + "_" +
                                    std::to_string(i);
        auto v = cache.GetOrCompute(key, [&] {
          computes.fetch_add(1, std::memory_order_relaxed);
          return ComputeFor(key);
        });
        ASSERT_NE(v, nullptr);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  scraper.join();

  EmbedCacheStats stats = cache.Stats();
  const uint64_t total_ops =
      static_cast<uint64_t>(kThreads) * kOpsPerThread;
  // Exactness at quiescence: every lookup landed in exactly one of
  // hits/misses, and every miss ran exactly one compute (single-flight).
  EXPECT_EQ(stats.lookups(), total_ops);
  EXPECT_EQ(stats.misses, computes.load());
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);  // the cold stream must have churned
  EXPECT_LE(stats.size, stats.capacity);
}

TEST(EmbedCacheTest, ConcurrentDoc2VecEmbedIsRaceFreeAndDeterministic) {
  // Doc2Vec::Embed const_casts `this` for its inference pass but only
  // reads the shared tables (update_tables=false). Hammering it from many
  // threads must be race-free (exercised under TSan in the verify matrix)
  // and every thread must reproduce the serial result exactly.
  Doc2VecEmbedder::Options options;
  options.dim = 8;
  options.epochs = 2;
  options.min_count = 1;
  Doc2VecEmbedder embedder(options);
  std::vector<std::vector<std::string>> corpus;
  for (int i = 0; i < 30; ++i) {
    corpus.push_back({"SELECT", "a", "FROM", "t", "WHERE", "b", "=", "<num>"});
    corpus.push_back({"INSERT", "INTO", "u", "VALUES", "<num>"});
  }
  ASSERT_TRUE(embedder.Train(corpus).ok());

  const std::vector<std::vector<std::string>> docs = {
      {"SELECT", "a", "FROM", "t"},
      {"INSERT", "INTO", "u", "VALUES", "<num>"},
      {"SELECT", "fresh", "tokens", "never", "trained"},
  };
  std::vector<nn::Vec> expected;
  for (const auto& doc : docs) expected.push_back(embedder.Embed(doc));

  constexpr int kThreads = 8;
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        size_t i = static_cast<size_t>(t + round) % docs.size();
        if (embedder.Embed(docs[i]) != expected[i]) mismatch.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(mismatch.load());
}

// ---------------------------------------------------------------------
// QWorker integration: the once-per-query shared embedding.

workload::LabeledQuery Query(const std::string& text,
                             const std::string& user = "u1") {
  workload::LabeledQuery q;
  q.text = text;
  q.user = user;
  return q;
}

std::shared_ptr<core::Classifier> TrainedClassifier(
    const std::string& task, std::shared_ptr<const Embedder> embedder) {
  auto classifier = std::make_shared<core::Classifier>(
      task, std::move(embedder),
      std::make_unique<ml::KnnClassifier>(ml::KnnClassifier::Options{.k = 1}));
  workload::Workload history;
  for (int i = 0; i < 5; ++i) {
    history.Add(Query("SELECT a FROM t WHERE x = 1", "alice"));
    history.Add(Query("SELECT b, c, d FROM u, v WHERE u.k = v.k", "bob"));
  }
  EXPECT_TRUE(classifier->Train(history, workload::UserOf).ok());
  return classifier;
}

TEST(QWorkerEmbedCacheTest, TasksOnOneEmbedderShareOneEmbedPerQuery) {
  auto embedder = std::make_shared<CountingEmbedder>();
  core::QWorker::Options options;
  options.application = "appX";
  options.embed_cache_capacity = 0;  // isolate the sharing from the cache
  core::QWorker worker(options);
  worker.DeployAll({TrainedClassifier("user", embedder),
                    TrainedClassifier("audience", embedder)});

  int calls_before = embedder->calls.load();
  core::ProcessedQuery out = worker.Process(Query("SELECT a FROM t"));
  EXPECT_EQ(out.predictions.size(), 2u);
  // Two deployed tasks, ONE embedding: the query was embedded once and
  // the vector fanned out.
  EXPECT_EQ(embedder->calls.load() - calls_before, 1);
}

TEST(QWorkerEmbedCacheTest, RepeatedTemplatesHitTheCache) {
  auto embedder = std::make_shared<CountingEmbedder>();
  core::QWorker::Options options;
  options.application = "appX";
  options.embed_cache_capacity = 128;
  core::QWorker worker(options);
  worker.Deploy(TrainedClassifier("user", embedder));

  int calls_before = embedder->calls.load();
  // Same template, different literals: the normalizer folds them to one
  // fingerprint, so only the first instance runs inference.
  worker.Process(Query("SELECT a FROM t WHERE x = 1"));
  worker.Process(Query("SELECT a FROM t WHERE x = 2"));
  worker.Process(Query("SELECT a FROM t WHERE x = 343"));
  EXPECT_EQ(embedder->calls.load() - calls_before, 1);

  ASSERT_NE(worker.embed_cache(), nullptr);
  EmbedCacheStats stats = worker.embed_cache()->Stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.size, 1u);

  // A different template misses again.
  worker.Process(Query("DELETE FROM t WHERE x = 1"));
  EXPECT_EQ(worker.embed_cache()->Stats().misses, 2u);
}

TEST(QWorkerEmbedCacheTest, CachedPredictionsMatchUncached) {
  auto embedder = std::make_shared<CountingEmbedder>();
  core::QWorker::Options cached_options;
  cached_options.application = "cached";
  cached_options.embed_cache_capacity = 128;
  core::QWorker cached(cached_options);
  cached.Deploy(TrainedClassifier("user", embedder));

  core::QWorker::Options uncached_options;
  uncached_options.application = "uncached";
  uncached_options.embed_cache_capacity = 0;
  core::QWorker uncached(uncached_options);
  uncached.Deploy(TrainedClassifier("user", embedder));
  EXPECT_EQ(uncached.embed_cache(), nullptr);

  const char* queries[] = {"SELECT a FROM t WHERE x = 1",
                           "SELECT a FROM t WHERE x = 7",
                           "SELECT b, c, d FROM u, v WHERE u.k = v.k",
                           "SELECT a FROM t WHERE x = 7"};
  for (const char* text : queries) {
    auto with = cached.Process(Query(text));
    auto without = uncached.Process(Query(text));
    EXPECT_EQ(with.predictions, without.predictions) << text;
  }
}

core::QWorkerPool::Options RoundRobinPool(size_t shards,
                                          size_t cache_capacity) {
  core::QWorkerPool::Options options;
  options.application = "pool";
  options.num_shards = shards;
  options.partition = core::QWorkerPool::Partition::kRoundRobin;
  options.worker.embed_cache_capacity = cache_capacity;
  return options;
}

TEST(QWorkerEmbedCacheTest, PoolSharesOneCacheAcrossShards) {
  for (size_t shards : {2u, 4u}) {
    SCOPED_TRACE(shards);
    auto embedder = std::make_shared<CountingEmbedder>();
    core::QWorkerPool pool(RoundRobinPool(shards, 64));
    pool.Deploy(TrainedClassifier("user", embedder));
    // One cache object behind every shard, sized per shard.
    for (size_t s = 0; s < shards; ++s) {
      ASSERT_NE(pool.shard(s).embed_cache(), nullptr);
      EXPECT_EQ(pool.shard(s).embed_cache(), pool.shard(0).embed_cache());
    }
    EXPECT_EQ(pool.MergedEmbedCacheStats().capacity, shards * 64);

    workload::Workload batch;
    for (int i = 0; i < 8; ++i) {
      batch.Add(Query("SELECT a FROM t WHERE x = " + std::to_string(i)));
    }
    int calls_before = embedder->calls.load();
    pool.ProcessBatch(batch);

    // Round-robin spreads the template over every shard, yet it is
    // embedded once: one miss, the rest hits.
    EXPECT_EQ(embedder->calls.load() - calls_before, 1);
    EmbedCacheStats stats = pool.MergedEmbedCacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 7u);
  }

  core::QWorkerPool uncached(RoundRobinPool(4, 0));
  for (size_t s = 0; s < uncached.num_shards(); ++s) {
    EXPECT_EQ(uncached.shard(s).embed_cache(), nullptr);
  }
  EXPECT_EQ(uncached.MergedEmbedCacheStats().capacity, 0u);
}

TEST(QWorkerEmbedCacheTest, ShardCountDoesNotChangeMissesOrPredictions) {
  auto embedder = std::make_shared<CountingEmbedder>();
  core::QWorkerPool one(RoundRobinPool(1, 64));
  core::QWorkerPool four(RoundRobinPool(4, 64));
  core::QWorker::Options uncached_options;
  uncached_options.application = "uncached";
  uncached_options.embed_cache_capacity = 0;
  core::QWorker uncached(uncached_options);
  auto classifier = TrainedClassifier("user", embedder);
  one.Deploy(classifier);
  four.Deploy(classifier);
  uncached.Deploy(classifier);

  // Three templates, each repeated with different literals.
  const char* templates[] = {"SELECT a FROM t WHERE x = ",
                             "SELECT b, c, d FROM u, v WHERE u.k = ",
                             "DELETE FROM t WHERE x = "};
  workload::Workload batch;
  for (int i = 0; i < 24; ++i) {
    batch.Add(Query(templates[i % 3] + std::to_string(i)));
  }
  auto from_one = one.ProcessBatch(batch);
  auto from_four = four.ProcessBatch(batch);
  auto from_uncached = uncached.ProcessBatch(batch);

  EXPECT_EQ(one.MergedEmbedCacheStats().misses, 3u);
  EXPECT_EQ(four.MergedEmbedCacheStats().misses, 3u);
  ASSERT_EQ(from_one.size(), batch.size());
  ASSERT_EQ(from_four.size(), batch.size());
  ASSERT_EQ(from_uncached.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_FALSE(from_uncached[i].predictions.empty()) << i;
    EXPECT_EQ(from_one[i].predictions, from_uncached[i].predictions) << i;
    EXPECT_EQ(from_four[i].predictions, from_uncached[i].predictions) << i;
  }
}

/// CountingEmbedder whose inference is slow enough that concurrent misses
/// on one template overlap.
class SlowCountingEmbedder : public CountingEmbedder {
 public:
  nn::Vec Embed(const std::vector<std::string>& words) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return CountingEmbedder::Embed(words);
  }
};

TEST(QWorkerEmbedCacheTest, CrossShardStampedeRunsInferenceOnce) {
  // Several callers fan one new template out over every shard at once:
  // the shared cache's single-flight slot must coalesce all of them onto
  // one inference (exercised under TSan in the verify matrix).
  auto embedder = std::make_shared<SlowCountingEmbedder>();
  core::QWorkerPool pool(RoundRobinPool(4, 64));
  pool.Deploy(TrainedClassifier("user", embedder));
  int calls_before = embedder->calls.load();

  constexpr int kThreads = 4;
  constexpr int kPerBatch = 4;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      workload::Workload batch;
      for (int i = 0; i < kPerBatch; ++i) {
        batch.Add(Query("SELECT z FROM w WHERE y = " +
                        std::to_string(t * kPerBatch + i)));
      }
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (const auto& out : pool.ProcessBatch(batch)) {
        EXPECT_TRUE(out.status.ok());
        EXPECT_FALSE(out.predictions.empty());
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(embedder->calls.load() - calls_before, 1);
  EmbedCacheStats stats = pool.MergedEmbedCacheStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads * kPerBatch - 1));
}

}  // namespace
}  // namespace querc::embed
