#include "querc/qworker_pool.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "embed/feature_embedder.h"
#include "ml/knn.h"
#include "obs/metrics.h"
#include "querc/classifier.h"
#include "querc/training_module.h"
#include "util/failpoint.h"
#include "workload/workload.h"

namespace querc::core {
namespace {

workload::LabeledQuery Query(const std::string& text,
                             const std::string& user = "u1",
                             const std::string& account = "acct1") {
  workload::LabeledQuery q;
  q.text = text;
  q.user = user;
  q.account = account;
  return q;
}

std::shared_ptr<Classifier> TrainedUserClassifier() {
  auto embedder = std::make_shared<embed::FeatureEmbedder>(
      embed::FeatureEmbedder::Options{});
  auto classifier = std::make_shared<Classifier>(
      "user", embedder,
      std::make_unique<ml::KnnClassifier>(ml::KnnClassifier::Options{.k = 1}));
  workload::Workload history;
  for (int i = 0; i < 10; ++i) {
    history.Add(Query("SELECT a FROM t WHERE x = 1", "alice"));
    history.Add(Query("SELECT b, c, d FROM u, v WHERE u.k = v.k", "bob"));
  }
  EXPECT_TRUE(classifier->Train(history, workload::UserOf).ok());
  return classifier;
}

/// A classifier whose every prediction is the fixed string `version` —
/// the probe used by the hot-swap consistency tests below.
std::shared_ptr<const Classifier> VersionedClassifier(
    const std::string& task, const std::string& version) {
  auto embedder = std::make_shared<embed::FeatureEmbedder>(
      embed::FeatureEmbedder::Options{});
  auto classifier = std::make_shared<Classifier>(
      task, embedder,
      std::make_unique<ml::KnnClassifier>(ml::KnnClassifier::Options{.k = 1}));
  workload::Workload history;
  for (int i = 0; i < 4; ++i) {
    history.Add(Query("SELECT x FROM t WHERE id = " + std::to_string(i)));
  }
  EXPECT_TRUE(
      classifier
          ->Train(history,
                  [version](const workload::LabeledQuery&) { return version; })
          .ok());
  return classifier;
}

TEST(QWorkerPoolTest, AccountShardingIsDeterministicAndAffine) {
  QWorkerPool::Options options;
  options.application = "appX";
  options.num_shards = 4;
  options.partition = QWorkerPool::Partition::kByAccount;
  QWorkerPool pool(options);
  EXPECT_EQ(pool.num_shards(), 4u);

  size_t first = pool.ShardOf(Query("SELECT 1", "u1", "tenantA"));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(pool.ShardOf(Query("SELECT other", "u9", "tenantA")), first)
        << "same account must always route to the same shard";
  }
}

TEST(QWorkerPoolTest, RoundRobinSpreadsUniformly) {
  QWorkerPool::Options options;
  options.application = "appX";
  options.num_shards = 4;
  options.partition = QWorkerPool::Partition::kRoundRobin;
  QWorkerPool pool(options);
  pool.Deploy(TrainedUserClassifier());

  workload::Workload batch;
  for (int i = 0; i < 40; ++i) batch.Add(Query("SELECT a FROM t WHERE x = 1"));
  auto out = pool.ProcessBatch(batch);
  ASSERT_EQ(out.size(), 40u);
  for (const auto& s : pool.Stats()) {
    EXPECT_EQ(s.processed, 10u);
    EXPECT_EQ(s.num_classifiers, 1u);
    EXPECT_GT(s.histogram.max, 0.0);
    EXPECT_EQ(s.histogram.count, 10u);
  }
  EXPECT_EQ(pool.processed_count(), 40u);
}

TEST(QWorkerPoolTest, StatsReportPercentilesFromHistograms) {
  // Regression: ShardStats must carry real histogram percentiles, and the
  // pooled view must merge every shard's samples.
  QWorkerPool::Options options;
  options.application = "appX";
  options.num_shards = 4;
  options.partition = QWorkerPool::Partition::kRoundRobin;
  QWorkerPool pool(options);
  pool.Deploy(TrainedUserClassifier());

  workload::Workload batch;
  for (int i = 0; i < 80; ++i) batch.Add(Query("SELECT a FROM t WHERE x = 1"));
  pool.ProcessBatch(batch);

  uint64_t total = 0;
  for (const auto& s : pool.Stats()) {
    EXPECT_EQ(s.histogram.count, 20u);
    EXPECT_GT(s.histogram.p99(), 0.0);
    EXPECT_LE(s.histogram.min, s.histogram.p50());
    EXPECT_LE(s.histogram.p50(), s.histogram.p90());
    EXPECT_LE(s.histogram.p90(), s.histogram.p99());
    EXPECT_LE(s.histogram.p99(), s.histogram.max);
    total += s.histogram.count;
  }
  obs::HistogramSnapshot pooled = pool.MergedLatency();
  EXPECT_EQ(pooled.count, total);
  EXPECT_EQ(pooled.count, 80u);
  EXPECT_GT(pooled.p99(), 0.0);
  EXPECT_GE(pooled.p99(), pooled.p50());
}

TEST(QWorkerPoolTest, ProcessBatchPreservesInputOrder) {
  QWorkerPool::Options options;
  options.application = "appX";
  options.num_shards = 3;
  options.partition = QWorkerPool::Partition::kByUser;
  QWorkerPool pool(options);
  pool.Deploy(TrainedUserClassifier());

  workload::Workload batch;
  for (int i = 0; i < 60; ++i) {
    bool alice = i % 2 == 0;
    batch.Add(Query(alice ? "SELECT a FROM t WHERE x = 1"
                          : "SELECT b, c, d FROM u, v WHERE u.k = v.k",
                    "user" + std::to_string(i % 7)));
  }
  auto out = pool.ProcessBatch(batch);
  ASSERT_EQ(out.size(), batch.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].query.text, batch[i].text) << "result order torn at " << i;
    EXPECT_EQ(out[i].predictions.at("user"), i % 2 == 0 ? "alice" : "bob");
  }
}

TEST(QWorkerPoolTest, PoolMatchesSingleWorkerPredictions) {
  auto classifier = TrainedUserClassifier();
  QWorker worker({.application = "solo"});
  worker.Deploy(classifier);

  QWorkerPool::Options options;
  options.application = "sharded";
  options.num_shards = 4;
  options.partition = QWorkerPool::Partition::kByAccount;
  QWorkerPool pool(options);
  pool.Deploy(classifier);

  workload::Workload batch;
  for (int i = 0; i < 30; ++i) {
    batch.Add(Query(i % 3 == 0 ? "SELECT a FROM t WHERE x = 1"
                               : "SELECT b, c, d FROM u, v WHERE u.k = v.k",
                    "u" + std::to_string(i % 5),
                    "acct" + std::to_string(i % 6)));
  }
  auto solo = worker.ProcessBatch(batch);
  auto sharded = pool.ProcessBatch(batch);
  ASSERT_EQ(solo.size(), sharded.size());
  for (size_t i = 0; i < solo.size(); ++i) {
    EXPECT_EQ(solo[i].predictions, sharded[i].predictions);
  }
}

TEST(QWorkerPoolTest, UndeployRemovesFromEveryShard) {
  QWorkerPool::Options options;
  options.application = "appX";
  options.num_shards = 3;
  QWorkerPool pool(options);
  pool.Deploy(TrainedUserClassifier());
  for (size_t s = 0; s < pool.num_shards(); ++s) {
    EXPECT_EQ(pool.shard(s).num_classifiers(), 1u);
  }
  EXPECT_TRUE(pool.Undeploy("user"));
  EXPECT_FALSE(pool.Undeploy("user"));
  for (size_t s = 0; s < pool.num_shards(); ++s) {
    EXPECT_EQ(pool.shard(s).num_classifiers(), 0u);
  }
}

TEST(QWorkerPoolTest, SharedExternalThreadPool) {
  util::ThreadPool shared(2);
  QWorkerPool::Options options;
  options.application = "appX";
  options.num_shards = 4;
  options.partition = QWorkerPool::Partition::kRoundRobin;
  QWorkerPool pool(options, &shared);
  pool.Deploy(TrainedUserClassifier());
  workload::Workload batch;
  for (int i = 0; i < 20; ++i) batch.Add(Query("SELECT a FROM t WHERE x = 1"));
  auto out = pool.ProcessBatch(batch);
  ASSERT_EQ(out.size(), 20u);
  EXPECT_EQ(pool.processed_count(), 20u);
}

TEST(QWorkerPoolTest, TrainingSinkReceivesEveryQuery) {
  QWorkerPool::Options options;
  options.application = "appX";
  options.num_shards = 4;
  options.partition = QWorkerPool::Partition::kRoundRobin;
  options.worker.forward_to_database = false;
  QWorkerPool pool(options);
  pool.Deploy(TrainedUserClassifier());
  std::atomic<int> teed{0};
  pool.set_training_sink(
      [&teed](const ProcessedQuery&) { teed.fetch_add(1); });
  workload::Workload batch;
  for (int i = 0; i < 25; ++i) batch.Add(Query("SELECT a FROM t WHERE x = 1"));
  (void)pool.ProcessBatch(batch);
  EXPECT_EQ(teed.load(), 25);
}

// The acceptance-criterion test: Deploy of retrained classifiers races an
// in-flight stream of Process calls. Two tasks ("t1", "t2") are always
// retrained and deployed *together* via DeployAll as matching versions;
// because deployment swaps one immutable snapshot, every processed query
// must observe t1 and t2 at the SAME version — a torn read (t1 of one
// generation, t2 of another) fails the test.
TEST(QWorkerPoolTest, HotSwapDuringInFlightProcessingIsAtomic) {
  auto t1_v1 = VersionedClassifier("t1", "v1");
  auto t2_v1 = VersionedClassifier("t2", "v1");
  auto t1_v2 = VersionedClassifier("t1", "v2");
  auto t2_v2 = VersionedClassifier("t2", "v2");

  QWorkerPool::Options options;
  options.application = "appX";
  options.num_shards = 2;
  options.partition = QWorkerPool::Partition::kRoundRobin;
  options.worker.forward_to_database = false;
  QWorkerPool pool(options);
  pool.DeployAll({t1_v1, t2_v1});

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::atomic<int> processed{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      workload::LabeledQuery q = Query("SELECT x FROM t WHERE id = 3");
      while (!stop.load(std::memory_order_relaxed)) {
        ProcessedQuery out = pool.Process(q);
        const std::string& a = out.predictions.at("t1");
        const std::string& b = out.predictions.at("t2");
        if (a != b) torn.fetch_add(1);
        processed.fetch_add(1);
      }
    });
  }

  // Writer: hot-swap the full classifier set back and forth while the
  // readers hammer Process. Keep swapping until the readers have labeled
  // a few thousand queries so swaps genuinely overlap in-flight work.
  int swap = 0;
  while (processed.load() < 2000 && swap < 1000000) {
    if (swap % 2 == 0) {
      pool.DeployAll({t1_v2, t2_v2});
    } else {
      pool.DeployAll({t1_v1, t2_v1});
    }
    ++swap;
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0)
      << "a query observed classifiers from two different deployments";
  EXPECT_GT(processed.load(), 0);
  // After the final swap, new queries see the last-deployed generation.
  auto out = pool.Process(Query("SELECT x FROM t WHERE id = 3"));
  EXPECT_EQ(out.predictions.at("t1"), out.predictions.at("t2"));
}

// Deploy/Undeploy racing Process must never crash or tear: each query
// either sees the task (with a live classifier) or does not see it.
TEST(QWorkerPoolTest, ConcurrentDeployUndeployRacingProcess) {
  auto classifier = TrainedUserClassifier();
  QWorkerPool::Options options;
  options.application = "appX";
  options.num_shards = 2;
  options.partition = QWorkerPool::Partition::kRoundRobin;
  options.worker.forward_to_database = false;
  QWorkerPool pool(options);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      pool.Deploy(classifier);
      pool.Undeploy("user");
    }
  });

  workload::Workload batch;
  for (int i = 0; i < 50; ++i) batch.Add(Query("SELECT a FROM t WHERE x = 1"));
  for (int round = 0; round < 30; ++round) {
    auto out = pool.ProcessBatch(batch);
    for (const auto& pq : out) {
      auto it = pq.predictions.find("user");
      if (it != pq.predictions.end()) {
        EXPECT_EQ(it->second, "alice");
      }
    }
  }
  stop.store(true);
  writer.join();
}

TEST(QWorkerPoolTest, TrainingModuleDeploysToEveryShard) {
  auto embedder = std::make_shared<embed::FeatureEmbedder>(
      embed::FeatureEmbedder::Options{});
  workload::Workload history;
  for (int i = 0; i < 10; ++i) {
    history.Add(Query("SELECT a FROM t WHERE x = 1", "alice"));
    history.Add(Query("SELECT b, c, d FROM u, v WHERE u.k = v.k", "bob"));
  }

  TrainingModule module({});
  module.RegisterEmbedder("E", embedder);
  module.ImportLogs("X", history);

  TrainingModule::TrainJob job;
  job.task_name = "user";
  job.application = "X";
  job.embedder_name = "E";
  job.label_of = workload::UserOf;
  job.labeler_factory = [] {
    return std::make_unique<ml::KnnClassifier>(
        ml::KnnClassifier::Options{.k = 1});
  };

  QWorkerPool::Options options;
  options.application = "X";
  options.num_shards = 3;
  QWorkerPool pool(options);
  ASSERT_TRUE(module.TrainAndDeploy({job}, pool).ok());
  for (size_t s = 0; s < pool.num_shards(); ++s) {
    EXPECT_EQ(pool.shard(s).num_classifiers(), 1u);
  }
  auto out = pool.Process(Query("SELECT a FROM t WHERE x = 2"));
  EXPECT_EQ(out.predictions.at("user"), "alice");
}

// ---------------------------------------------------------------------------
// Fault tolerance: admission control, shedding, fan-out isolation
// ---------------------------------------------------------------------------

class QWorkerPoolFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { util::Failpoints::Global().DisarmAll(); }
  void TearDown() override { util::Failpoints::Global().DisarmAll(); }
};

workload::Workload NumberedBatch(size_t n) {
  workload::Workload batch;
  for (size_t i = 0; i < n; ++i) {
    batch.Add(Query("SELECT " + std::to_string(i), "u1",
                    "acct" + std::to_string(i)));
  }
  return batch;
}

TEST_F(QWorkerPoolFaultTest, RejectNewShedsTailDeterministically) {
  QWorkerPool::Options options;
  options.application = "X";
  options.num_shards = 2;
  options.max_in_flight = 4;
  QWorkerPool pool(options);

  auto results = pool.ProcessBatch(NumberedBatch(10));
  ASSERT_EQ(results.size(), 10u);
  // A 10-query batch against a 4-slot bound: the first 4 are admitted,
  // the newest 6 are shed — in place, in order, never dropped.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(results[i].shed) << i;
    EXPECT_TRUE(results[i].status.ok()) << i;
  }
  for (size_t i = 4; i < 10; ++i) {
    EXPECT_TRUE(results[i].shed) << i;
    EXPECT_EQ(results[i].status.code(),
              util::StatusCode::kResourceExhausted);
    EXPECT_EQ(results[i].query.text, "SELECT " + std::to_string(i));
  }
  EXPECT_EQ(pool.shed_count(), 6u);
  EXPECT_EQ(pool.in_flight(), 0u);  // slots released after the batch

  // The next batch has the slots back.
  results = pool.ProcessBatch(NumberedBatch(4));
  for (const auto& r : results) EXPECT_FALSE(r.shed);
}

TEST_F(QWorkerPoolFaultTest, AdmissionMidBatchShedMarkersStayInPlace) {
  // With the tenant controller on, sheds land mid-batch (one tenant's
  // quota tail interleaves another's admitted head). Every position must
  // still carry its own query.
  QWorkerPool::Options options;
  options.application = "X";
  options.num_shards = 2;
  options.enable_tenant_admission = true;
  options.admission.default_quota.burst = 1.0;  // one query per tenant
  QWorkerPool pool(options);

  workload::Workload batch;
  const char* accounts[] = {"a", "b", "a", "b", "a"};
  for (size_t i = 0; i < 5; ++i) {
    batch.Add(Query("SELECT " + std::to_string(i), "u1", accounts[i]));
  }
  auto results = pool.ProcessBatch(batch);
  ASSERT_EQ(results.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(results[i].query.text, "SELECT " + std::to_string(i)) << i;
    // Each tenant's first query survives its 1-token bucket; positions
    // 2..4 are that tenant's second/third arrivals.
    EXPECT_EQ(results[i].shed, i >= 2) << i;
  }
  EXPECT_EQ(pool.admission()->shed_for(ShedReason::kQuota), 3u);
}

TEST_F(QWorkerPoolFaultTest, ConcurrentBatchesNeverMisplaceMarkers) {
  // Admission + racing batches: whatever the interleaving decides to shed
  // (including reason=global when the CAS reservation loses a race), every
  // result index must hold its own query and nothing may be silently
  // dropped.
  QWorkerPool::Options options;
  options.application = "X";
  options.num_shards = 2;
  options.max_in_flight = 3;
  options.enable_tenant_admission = true;
  options.admission.default_quota.burst = 4.0;
  options.admission.default_quota.rate_per_sec = 1e6;
  QWorkerPool pool(options);

  constexpr int kThreads = 4;
  constexpr int kBatches = 25;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int b = 0; b < kBatches; ++b) {
        workload::Workload batch;
        for (int i = 0; i < 6; ++i) {
          batch.Add(Query("SELECT " + std::to_string(t * 1000 + i), "u1",
                          "acct" + std::to_string(t)));
        }
        auto results = pool.ProcessBatch(batch);
        if (results.size() != batch.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < results.size(); ++i) {
          if (results[i].query.text != batch[i].text) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(pool.in_flight(), 0u);
  // Full accounting: every submitted query was either processed or shed,
  // and the pool's shed tally agrees with the controller's.
  EXPECT_EQ(pool.processed_count() + pool.shed_count(),
            static_cast<size_t>(kThreads * kBatches * 6));
  EXPECT_EQ(pool.shed_count(),
            static_cast<size_t>(pool.admission()->shed_total()));
}

TEST_F(QWorkerPoolFaultTest, UnboundedPoolNeverSheds) {
  QWorkerPool::Options options;
  options.application = "X";
  options.num_shards = 2;
  QWorkerPool pool(options);
  auto results = pool.ProcessBatch(NumberedBatch(64));
  for (const auto& r : results) EXPECT_FALSE(r.shed);
  EXPECT_EQ(pool.shed_count(), 0u);
}

TEST_F(QWorkerPoolFaultTest, FanOutFailpointMarksQueriesNotDrops) {
  QWorkerPool::Options options;
  options.application = "X";
  options.num_shards = 2;
  QWorkerPool pool(options);
  // Fail exactly one shard task; the whole batch must still come back,
  // with the failed shard's queries carrying the status.
  util::FailpointSpec spec;
  spec.code = util::StatusCode::kUnavailable;
  spec.count = 1;
  util::Failpoints::Global().Arm("pool.fan_out", spec);

  auto results = pool.ProcessBatch(NumberedBatch(8));
  ASSERT_EQ(results.size(), 8u);
  size_t failed = 0;
  for (const auto& r : results) {
    if (!r.status.ok()) {
      EXPECT_EQ(r.status.code(), util::StatusCode::kUnavailable);
      EXPECT_FALSE(r.query.text.empty());  // the query rode along
      ++failed;
    }
  }
  EXPECT_GT(failed, 0u);
  EXPECT_LT(failed, 8u);  // the other shard's task was unaffected
}

TEST_F(QWorkerPoolFaultTest, PoisonedQueryDoesNotLoseBatch) {
  QWorkerPool::Options options;
  options.application = "X";
  options.num_shards = 2;
  options.worker.sink_retry.max_attempts = 1;
  QWorkerPool pool(options);
  // A sink that throws on one specific query: every other query in the
  // batch must process normally and the poisoned one must carry its
  // sink error instead of taking the batch down.
  pool.set_database_sink([](const workload::LabeledQuery& q) {
    if (q.text == "SELECT 3") throw std::runtime_error("poison");
  });
  auto results = pool.ProcessBatch(NumberedBatch(8));
  ASSERT_EQ(results.size(), 8u);
  size_t poisoned = 0;
  for (const auto& r : results) {
    EXPECT_TRUE(r.status.ok());
    if (!r.database_status.ok()) {
      EXPECT_EQ(r.query.text, "SELECT 3");
      ++poisoned;
    }
  }
  EXPECT_EQ(poisoned, 1u);
  EXPECT_EQ(pool.processed_count(), 8u);
}

TEST_F(QWorkerPoolFaultTest, FallbackDeploysToEveryShard) {
  QWorkerPool::Options options;
  options.application = "X";
  options.num_shards = 3;
  QWorkerPool pool(options);
  pool.Deploy(TrainedUserClassifier());
  pool.DeployFallback(TrainedUserClassifier());
  for (size_t s = 0; s < pool.num_shards(); ++s) {
    EXPECT_EQ(pool.shard(s).fallbacks()->count("user"), 1u);
  }
  EXPECT_TRUE(pool.UndeployFallback("user"));
  EXPECT_FALSE(pool.UndeployFallback("user"));
}

TEST_F(QWorkerPoolFaultTest, BreakerStatesCoverEveryShard) {
  QWorkerPool::Options options;
  options.application = "X";
  options.num_shards = 2;
  QWorkerPool pool(options);
  pool.Deploy(TrainedUserClassifier());
  auto states = pool.BreakerStates();
  // Per shard: database sink, training sink, one task.
  EXPECT_EQ(states.size(), 6u);
  std::set<std::string> names;
  for (const auto& [name, state] : states) {
    names.insert(name);
    EXPECT_EQ(state, CircuitBreaker::State::kClosed);
  }
  EXPECT_TRUE(names.count("X/0:sink_database"));
  EXPECT_TRUE(names.count("X/1:task_user"));
}

TEST_F(QWorkerPoolFaultTest, PerTenantSinkBreakersReplaceWorkerLevelOnes) {
  // Per-tenant sink breakers replace the worker-level ones, so
  // BreakerStates lists only breakers that Process consults.
  QWorkerPool::Options options;
  options.application = "X";
  options.num_shards = 1;
  options.worker.per_tenant_sink_breakers = true;
  QWorkerPool pool(options);
  pool.Deploy(TrainedUserClassifier());
  pool.set_database_sink([](const workload::LabeledQuery&) {});
  pool.set_training_sink([](const ProcessedQuery&) {});
  ProcessedQuery out = pool.Process(Query("SELECT 1", "u1", "a"));
  EXPECT_TRUE(out.clean());

  std::set<std::string> names;
  for (const auto& [name, state] : pool.BreakerStates()) names.insert(name);
  EXPECT_TRUE(names.count("X/0:sink_database:a"));
  EXPECT_TRUE(names.count("X/0:sink_training:a"));
  EXPECT_TRUE(names.count("X/0:task_user"));
  EXPECT_FALSE(names.count("X/0:sink_database"));
  EXPECT_FALSE(names.count("X/0:sink_training"));
  EXPECT_EQ(names.size(), 3u);
}

TEST_F(QWorkerPoolFaultTest, StatsOnIdlePoolHasNoFakeZeroMin) {
  QWorkerPool::Options options;
  options.application = "X";
  options.num_shards = 2;
  QWorkerPool pool(options);
  for (const auto& s : pool.Stats()) {
    EXPECT_EQ(s.histogram.count, 0u);
    EXPECT_DOUBLE_EQ(s.histogram.min, 0.0);
  }
  // Merging an idle shard into the pooled view keeps the busy shard's
  // real minimum, not the idle shard's zero.
  pool.Process(Query("SELECT 1"));
  obs::HistogramSnapshot merged = pool.MergedLatency();
  EXPECT_EQ(merged.count, 1u);
  EXPECT_TRUE(std::isfinite(merged.min));
  EXPECT_GT(merged.min, 0.0);
  EXPECT_DOUBLE_EQ(merged.min, merged.max);
}

// ---------------------------------------------------------------------------
// The two-stage batch: a pool-wide compute stage, then an ordered commit
// per shard.
// ---------------------------------------------------------------------------

/// FeatureEmbedder that throws on any query touching table `poison`, and
/// records every word list it embeds (thread-safe) so a test can tell
/// which queries reached Compute.
class PoisonEmbedder : public embed::Embedder {
 public:
  util::Status Train(const std::vector<std::vector<std::string>>&) override {
    return util::Status::OK();
  }
  nn::Vec Embed(const std::vector<std::string>& words) const override {
    std::string joined;
    for (const std::string& w : words) joined += w + " ";
    {
      std::lock_guard<std::mutex> lock(mu_);
      embedded_.insert(joined);
    }
    if (joined.find(" poison ") != std::string::npos) {
      throw std::runtime_error("poisoned embedding");
    }
    return inner_.Embed(words);
  }
  size_t dim() const override { return inner_.dim(); }
  std::string name() const override { return "poison"; }

  /// True when some embedded word list contains `word`.
  bool Saw(const std::string& word) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& joined : embedded_) {
      if (joined.find(" " + word + " ") != std::string::npos) return true;
    }
    return false;
  }

 private:
  embed::FeatureEmbedder inner_{embed::FeatureEmbedder::Options{}};
  mutable std::mutex mu_;
  mutable std::set<std::string> embedded_;
};

std::shared_ptr<Classifier> UserClassifierOn(
    const std::string& task, std::shared_ptr<const embed::Embedder> embedder) {
  auto classifier = std::make_shared<Classifier>(
      task, std::move(embedder),
      std::make_unique<ml::KnnClassifier>(ml::KnnClassifier::Options{.k = 1}));
  workload::Workload history;
  for (int i = 0; i < 10; ++i) {
    history.Add(Query("SELECT a FROM t WHERE x = 1", "alice"));
    history.Add(Query("SELECT b, c, d FROM u, v WHERE u.k = v.k", "bob"));
  }
  EXPECT_TRUE(classifier->Train(history, workload::UserOf).ok());
  return classifier;
}

/// A mixed batch: clean queries, lint offenders, and queries on table
/// `poison` whose PoisonEmbedder tasks fail in the compute stage.
workload::Workload MixedBatch(size_t n) {
  const char* shapes[] = {
      "SELECT a FROM t WHERE x = ",
      "SELECT * FROM poison WHERE y = ",
      "SELECT b, c, d FROM u, v WHERE u.k = v.k AND u.z = ",
      "SELECT a FROM t WHERE 1 = 1 AND x = ",
      "SELECT * FROM u, v WHERE u.w > ",
  };
  workload::Workload batch;
  for (size_t i = 0; i < n; ++i) {
    batch.Add(Query(shapes[(i * 7) % 5] + std::to_string(i),
                    "u" + std::to_string((i * 3) % 5),
                    "acct" + std::to_string((i * 5) % 6)));
  }
  return batch;
}

std::string DiagnosticsText(const ProcessedQuery& q) {
  std::string text;
  for (const sql::lint::Diagnostic& d : q.diagnostics) {
    text += d.rule_id + "@" + std::to_string(d.span.offset) + "+" +
            std::to_string(d.span.length) + ":" +
            std::to_string(static_cast<int>(d.severity)) + ":" + d.message +
            "|" + d.fix_hint + ";";
  }
  return text;
}

TEST(QWorkerPoolStagesTest, ShardArrivalOrderSurvivesBothStages) {
  for (size_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    QWorkerPool::Options options;
    options.application = "order";
    options.num_shards = shards;
    options.partition = QWorkerPool::Partition::kByAccount;
    options.worker.window_size = 256;
    QWorkerPool pool(options);
    pool.Deploy(TrainedUserClassifier());
    std::mutex mu;
    std::vector<std::string> database_seen;
    std::vector<std::string> training_seen;
    pool.set_database_sink([&](const workload::LabeledQuery& q) {
      std::lock_guard<std::mutex> lock(mu);
      database_seen.push_back(q.text);
    });
    pool.set_training_sink([&](const ProcessedQuery& q) {
      std::lock_guard<std::mutex> lock(mu);
      training_seen.push_back(q.query.text);
    });

    std::vector<std::vector<std::string>> expected(shards);
    for (int round = 0; round < 3; ++round) {
      workload::Workload batch;
      for (int i = 0; i < 40; ++i) {
        batch.Add(Query(
            "SELECT a FROM t WHERE x = " + std::to_string(round * 100 + i),
            "u1", "acct" + std::to_string((i * 7 + round) % 9)));
      }
      for (const auto& q : batch) {
        expected[pool.ShardOf(q)].push_back(q.text);
      }
      auto out = pool.ProcessBatch(batch);
      ASSERT_EQ(out.size(), batch.size());
      for (size_t i = 0; i < out.size(); ++i) {
        EXPECT_TRUE(out[i].status.ok()) << i;
        EXPECT_EQ(out[i].query.text, batch[i].text) << i;
      }
    }

    // Each shard's sub-stream, in input order, in both sinks and the
    // shard's window. The sinks interleave shards, so filter per shard.
    auto shard_of_text = [&](const std::string& text) {
      for (size_t s = 0; s < shards; ++s) {
        for (const std::string& t : expected[s]) {
          if (t == text) return s;
        }
      }
      return shards;
    };
    for (size_t s = 0; s < shards; ++s) {
      std::vector<std::string> database_sub;
      std::vector<std::string> training_sub;
      for (const std::string& t : database_seen) {
        if (shard_of_text(t) == s) database_sub.push_back(t);
      }
      for (const std::string& t : training_seen) {
        if (shard_of_text(t) == s) training_sub.push_back(t);
      }
      EXPECT_EQ(database_sub, expected[s]) << "database sink, shard " << s;
      EXPECT_EQ(training_sub, expected[s]) << "training sink, shard " << s;
      std::vector<std::string> window;
      for (const auto& q : pool.shard(s).window()) window.push_back(q.text);
      EXPECT_EQ(window, expected[s]) << "window, shard " << s;
    }
    EXPECT_EQ(database_seen.size(), 120u);
    EXPECT_EQ(training_seen.size(), 120u);
  }
}

TEST(QWorkerPoolStagesTest, BatchMatchesPerQueryProcess) {
  auto poison = std::make_shared<PoisonEmbedder>();
  auto user = TrainedUserClassifier();
  // "flaky" fails on poison queries and degrades to its fallback;
  // "fragile" fails on them with no fallback and is skipped.
  auto flaky = UserClassifierOn("flaky", poison);
  auto flaky_fallback = UserClassifierOn(
      "flaky", std::make_shared<embed::FeatureEmbedder>(
                   embed::FeatureEmbedder::Options{}));
  auto fragile = UserClassifierOn("fragile", poison);
  auto deploy = [&](auto& target) {
    target.DeployAll({user, flaky, fragile});
    target.DeployFallback(flaky_fallback);
  };

  // Breakers off: a breaker's state depends on which queries its shard
  // saw, which would make the reference differ by partition.
  QWorker::Options worker;
  worker.application = "reference";
  worker.enable_breakers = false;
  QWorker reference(worker);
  deploy(reference);
  workload::Workload batch = MixedBatch(48);
  std::vector<ProcessedQuery> expected;
  for (const auto& q : batch) expected.push_back(reference.Process(q));
  size_t degraded = 0;
  size_t diagnosed = 0;
  for (const auto& e : expected) {
    degraded += e.degraded_tasks.empty() ? 0 : 1;
    diagnosed += e.diagnostics.empty() ? 0 : 1;
  }
  ASSERT_GT(degraded, 0u);
  ASSERT_GT(diagnosed, 0u);

  // A 60 s worker deadline cannot expire during the batch, so it must
  // change nothing: lint still runs and no task is cut short.
  for (double deadline_ms : {0.0, 60000.0}) {
    for (auto partition :
         {QWorkerPool::Partition::kByAccount, QWorkerPool::Partition::kByUser,
          QWorkerPool::Partition::kRoundRobin}) {
      for (size_t shards : {1u, 2u, 4u}) {
        SCOPED_TRACE("deadline_ms=" + std::to_string(deadline_ms) +
                     " partition=" +
                     std::to_string(static_cast<int>(partition)) +
                     " shards=" + std::to_string(shards));
        QWorkerPool::Options options;
        options.application = "stages";
        options.num_shards = shards;
        options.partition = partition;
        options.worker = worker;
        options.worker.deadline_ms = deadline_ms;
        QWorkerPool pool(options);
        deploy(pool);
        auto out = pool.ProcessBatch(batch);
        ASSERT_EQ(out.size(), expected.size());
        for (size_t i = 0; i < out.size(); ++i) {
          EXPECT_TRUE(out[i].status.ok()) << i;
          EXPECT_EQ(out[i].query.text, expected[i].query.text) << i;
          EXPECT_EQ(out[i].predictions, expected[i].predictions) << i;
          EXPECT_EQ(DiagnosticsText(out[i]), DiagnosticsText(expected[i]))
              << i;
          EXPECT_EQ(out[i].degraded_tasks, expected[i].degraded_tasks) << i;
          EXPECT_EQ(out[i].skipped_tasks, expected[i].skipped_tasks) << i;
          EXPECT_FALSE(out[i].deadline_exceeded) << i;
        }
        EXPECT_EQ(pool.processed_count(), batch.size());
      }
    }
  }
}

TEST_F(QWorkerPoolFaultTest, FanOutFailureKeepsShardOutOfCompute) {
  QWorkerPool::Options options;
  options.application = "X";
  options.num_shards = 4;
  options.partition = QWorkerPool::Partition::kByAccount;
  options.worker.embed_cache_capacity = 0;  // every query reaches Embed
  QWorkerPool pool(options);
  auto embedder = std::make_shared<PoisonEmbedder>();
  pool.Deploy(UserClassifierOn("user", embedder));

  // Distinct columns, so each query's embedded words name it.
  workload::Workload batch;
  for (size_t i = 0; i < 24; ++i) {
    batch.Add(Query("SELECT c" + std::to_string(i) + " FROM t", "u1",
                    "acct" + std::to_string(i % 8)));
  }
  std::vector<size_t> shard_of;
  std::set<size_t> live;
  for (const auto& q : batch) {
    shard_of.push_back(pool.ShardOf(q));
    live.insert(shard_of.back());
  }
  ASSERT_GE(live.size(), 2u);

  util::FailpointSpec spec;
  spec.code = util::StatusCode::kUnavailable;
  spec.count = 1;
  util::Failpoints::Global().Arm("pool.fan_out", spec);
  auto results = pool.ProcessBatch(batch);
  ASSERT_EQ(results.size(), batch.size());

  // Exactly one shard failed: every one of its queries, and nothing else.
  std::set<size_t> failed_shards;
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].status.ok()) failed_shards.insert(shard_of[i]);
  }
  ASSERT_EQ(failed_shards.size(), 1u);
  size_t failed = *failed_shards.begin();
  for (size_t i = 0; i < results.size(); ++i) {
    std::string column = "c" + std::to_string(i);
    EXPECT_EQ(results[i].query.text, batch[i].text) << i;
    if (shard_of[i] == failed) {
      EXPECT_EQ(results[i].status.code(), util::StatusCode::kUnavailable);
      EXPECT_TRUE(results[i].predictions.empty()) << i;
      EXPECT_FALSE(embedder->Saw(column)) << "query " << i << " was computed";
    } else {
      EXPECT_TRUE(results[i].status.ok()) << i;
      EXPECT_EQ(results[i].predictions.count("user"), 1u) << i;
      EXPECT_TRUE(embedder->Saw(column)) << i;
    }
  }
  EXPECT_EQ(pool.shard(failed).processed_count(), 0u);
}

TEST_F(QWorkerPoolFaultTest, ThrowingClassifierAffectsOnlyItsQuery) {
  QWorkerPool::Options options;
  options.application = "X";
  options.num_shards = 2;
  options.partition = QWorkerPool::Partition::kRoundRobin;
  options.worker.enable_breakers = false;
  QWorkerPool pool(options);
  pool.DeployAll({TrainedUserClassifier(),
                  UserClassifierOn("fragile",
                                   std::make_shared<PoisonEmbedder>())});
  std::mutex mu;
  std::vector<std::string> forwarded;
  pool.set_database_sink([&](const workload::LabeledQuery& q) {
    std::lock_guard<std::mutex> lock(mu);
    forwarded.push_back(q.text);
  });

  workload::Workload batch;
  for (size_t i = 0; i < 16; ++i) {
    batch.Add(Query(i == 5 ? "SELECT a FROM poison WHERE x = 1"
                           : "SELECT a FROM t WHERE x = " + std::to_string(i)));
  }
  auto results = pool.ProcessBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].status.ok()) << i;
    EXPECT_TRUE(results[i].database_status.ok()) << i;
    EXPECT_EQ(results[i].predictions.count("user"), 1u) << i;
    if (i == 5) {
      EXPECT_EQ(results[i].skipped_tasks,
                std::vector<std::string>{"fragile"});
      EXPECT_EQ(results[i].predictions.count("fragile"), 0u);
    } else {
      EXPECT_TRUE(results[i].skipped_tasks.empty()) << i;
      EXPECT_EQ(results[i].predictions.count("fragile"), 1u) << i;
    }
  }
  // The failed task did not stop its query from being committed.
  EXPECT_EQ(forwarded.size(), batch.size());
  EXPECT_EQ(pool.processed_count(), batch.size());
}

}  // namespace
}  // namespace querc::core
