#include "querc/qworker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "embed/feature_embedder.h"
#include "ml/knn.h"
#include "obs/trace.h"
#include "querc/classifier.h"
#include "util/failpoint.h"
#include "workload/workload.h"

namespace querc::core {
namespace {

workload::LabeledQuery Query(const std::string& text,
                             const std::string& user = "u1") {
  workload::LabeledQuery q;
  q.text = text;
  q.user = user;
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

TEST(ClassifierTest, TrainPredictRoundTrip) {
  auto classifier = TrainedUserClassifier();
  EXPECT_TRUE(classifier->trained());
  EXPECT_EQ(classifier->Predict(Query("SELECT a FROM t WHERE x = 9")),
            "alice");
  EXPECT_EQ(
      classifier->Predict(Query("SELECT b, c, d FROM u, v WHERE u.k = v.k")),
      "bob");
  EXPECT_EQ(classifier->task_name(), "user");
  EXPECT_EQ(classifier->labels().num_classes(), 2u);
}

TEST(ClassifierTest, EmptyCorpusFails) {
  auto embedder = std::make_shared<embed::FeatureEmbedder>(
      embed::FeatureEmbedder::Options{});
  Classifier classifier(
      "t", embedder,
      std::make_unique<ml::KnnClassifier>(ml::KnnClassifier::Options{}));
  EXPECT_FALSE(classifier.Train({}, workload::UserOf).ok());
  EXPECT_EQ(classifier.PredictId(Query("SELECT 1")), -1);
  EXPECT_EQ(classifier.Predict(Query("SELECT 1")), "");
}

TEST(QWorkerTest, ProcessRunsAllClassifiersAndSinks) {
  QWorker::Options options;
  options.application = "appX";
  QWorker worker(options);
  worker.Deploy(TrainedUserClassifier());

  std::vector<std::string> to_db;
  std::vector<std::string> to_training;
  worker.set_database_sink([&](const workload::LabeledQuery& q) {
    to_db.push_back(q.text);
  });
  worker.set_training_sink([&](const ProcessedQuery& pq) {
    to_training.push_back(pq.predictions.at("user"));
  });

  ProcessedQuery out = worker.Process(Query("SELECT a FROM t WHERE x = 3"));
  EXPECT_EQ(out.predictions.at("user"), "alice");
  ASSERT_EQ(to_db.size(), 1u);
  ASSERT_EQ(to_training.size(), 1u);
  EXPECT_EQ(to_training[0], "alice");
  EXPECT_EQ(worker.processed_count(), 1u);
  EXPECT_EQ(worker.num_classifiers(), 1u);
}

TEST(QWorkerTest, ForkedModeSkipsDatabase) {
  QWorker::Options options;
  options.application = "appX";
  options.forward_to_database = false;  // "forked" deployment (§2)
  QWorker worker(options);
  int db_calls = 0;
  int training_calls = 0;
  worker.set_database_sink(
      [&](const workload::LabeledQuery&) { ++db_calls; });
  worker.set_training_sink([&](const ProcessedQuery&) { ++training_calls; });
  worker.Process(Query("SELECT 1"));
  EXPECT_EQ(db_calls, 0);
  EXPECT_EQ(training_calls, 1);
}

TEST(QWorkerTest, WindowIsBounded) {
  QWorker::Options options;
  options.application = "appX";
  options.window_size = 3;
  QWorker worker(options);
  for (int i = 0; i < 10; ++i) {
    worker.Process(Query("SELECT " + std::to_string(i)));
  }
  ASSERT_EQ(worker.window().size(), 3u);
  EXPECT_EQ(worker.window().back().text, "SELECT 9");
  EXPECT_EQ(worker.window().front().text, "SELECT 7");
}

TEST(QWorkerTest, DeployReplacesAndUndeployRemoves) {
  QWorker::Options options;
  options.application = "appX";
  QWorker worker(options);
  worker.Deploy(TrainedUserClassifier());
  worker.Deploy(TrainedUserClassifier());  // same task name: replace
  EXPECT_EQ(worker.num_classifiers(), 1u);
  EXPECT_TRUE(worker.Undeploy("user"));
  EXPECT_FALSE(worker.Undeploy("user"));
  EXPECT_EQ(worker.num_classifiers(), 0u);
}

TEST(QWorkerTest, ProcessBatch) {
  QWorker::Options options;
  options.application = "appX";
  QWorker worker(options);
  worker.Deploy(TrainedUserClassifier());
  workload::Workload batch;
  batch.Add(Query("SELECT a FROM t WHERE x = 1"));
  batch.Add(Query("SELECT b, c, d FROM u, v WHERE u.k = v.k"));
  auto results = worker.ProcessBatch(batch);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].predictions.at("user"), "alice");
  EXPECT_EQ(results[1].predictions.at("user"), "bob");
  EXPECT_TRUE(results[0].clean());
  EXPECT_TRUE(results[1].clean());
}

// ---------------------------------------------------------------------------
// Fault tolerance
// ---------------------------------------------------------------------------

/// Arms/disarms around each test so a leaked failpoint can't poison the
/// rest of the binary.
class QWorkerFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { util::Failpoints::Global().DisarmAll(); }
  void TearDown() override { util::Failpoints::Global().DisarmAll(); }
};

TEST_F(QWorkerFaultTest, ThrowingDatabaseSinkBecomesStatus) {
  QWorker::Options options;
  options.application = "appX";
  options.sink_retry.max_attempts = 1;  // no retries: observe the raw fault
  QWorker worker(options);
  worker.set_database_sink([](const workload::LabeledQuery&) {
    throw std::runtime_error("db down");
  });
  ProcessedQuery out = worker.Process(Query("SELECT 1"));
  EXPECT_EQ(out.database_status.code(), util::StatusCode::kInternal);
  EXPECT_NE(out.database_status.message().find("db down"), std::string::npos);
  EXPECT_TRUE(out.training_status.ok());
  EXPECT_TRUE(out.status.ok());  // the query itself still flowed
  EXPECT_FALSE(out.clean());
  EXPECT_EQ(worker.processed_count(), 1u);
}

TEST_F(QWorkerFaultTest, DatabaseFailpointYieldsTypedStatus) {
  QWorker::Options options;
  options.application = "appX";
  options.sink_retry.max_attempts = 1;
  QWorker worker(options);
  int db_calls = 0;
  worker.set_database_sink(
      [&](const workload::LabeledQuery&) { ++db_calls; });
  util::FailpointSpec spec;
  spec.code = util::StatusCode::kUnavailable;
  spec.count = 1;
  util::Failpoints::Global().Arm("qworker.sink_database", spec);

  ProcessedQuery out = worker.Process(Query("SELECT 1"));
  EXPECT_EQ(out.database_status.code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(db_calls, 0);  // fault injected before the sink ran

  out = worker.Process(Query("SELECT 2"));  // failpoint budget spent
  EXPECT_TRUE(out.database_status.ok());
  EXPECT_EQ(db_calls, 1);
}

TEST_F(QWorkerFaultTest, TrainingFailpointYieldsTypedStatus) {
  QWorker::Options options;
  options.application = "appX";
  options.sink_retry.max_attempts = 1;
  QWorker worker(options);
  worker.set_training_sink([](const ProcessedQuery&) {});
  util::FailpointSpec spec;
  spec.code = util::StatusCode::kUnavailable;
  util::Failpoints::Global().Arm("qworker.sink_training", spec);
  ProcessedQuery out = worker.Process(Query("SELECT 1"));
  EXPECT_EQ(out.training_status.code(), util::StatusCode::kUnavailable);
  EXPECT_TRUE(out.database_status.ok());
}

TEST_F(QWorkerFaultTest, SinkRetriesRecoverTransientFault) {
  QWorker::Options options;
  options.application = "appX";
  options.sink_retry.max_attempts = 3;
  options.sink_retry.initial_backoff_ms = 0.0;  // no sleeping in tests
  QWorker worker(options);
  int db_calls = 0;
  worker.set_database_sink(
      [&](const workload::LabeledQuery&) { ++db_calls; });
  util::FailpointSpec spec;
  spec.count = 2;  // first two attempts fail, third succeeds
  util::Failpoints::Global().Arm("qworker.sink_database", spec);

  ProcessedQuery out = worker.Process(Query("SELECT 1"));
  EXPECT_TRUE(out.database_status.ok());
  EXPECT_EQ(db_calls, 1);
  EXPECT_EQ(util::Failpoints::Global().hits("qworker.sink_database"), 2u);
}

TEST_F(QWorkerFaultTest, ClassifierFailpointFallsBackToFallback) {
  QWorker::Options options;
  options.application = "appX";
  QWorker worker(options);
  worker.Deploy(TrainedUserClassifier());
  worker.DeployFallback(TrainedUserClassifier());
  util::FailpointSpec spec;
  spec.count = 1;
  util::Failpoints::Global().Arm("qworker.classifier_predict", spec);

  ProcessedQuery out = worker.Process(Query("SELECT a FROM t WHERE x = 1"));
  // The fallback answered, and the degradation is recorded.
  EXPECT_EQ(out.predictions.at("user"), "alice");
  ASSERT_EQ(out.degraded_tasks.size(), 1u);
  EXPECT_EQ(out.degraded_tasks[0], "user");
  EXPECT_TRUE(out.skipped_tasks.empty());

  out = worker.Process(Query("SELECT a FROM t WHERE x = 1"));
  EXPECT_TRUE(out.degraded_tasks.empty());  // fault gone: primary answers
}

TEST_F(QWorkerFaultTest, ClassifierFailpointWithoutFallbackSkipsTask) {
  QWorker::Options options;
  options.application = "appX";
  QWorker worker(options);
  worker.Deploy(TrainedUserClassifier());
  util::FailpointSpec spec;
  spec.count = 1;
  util::Failpoints::Global().Arm("qworker.classifier_predict", spec);

  ProcessedQuery out = worker.Process(Query("SELECT a FROM t WHERE x = 1"));
  EXPECT_EQ(out.predictions.count("user"), 0u);
  ASSERT_EQ(out.skipped_tasks.size(), 1u);
  EXPECT_EQ(out.skipped_tasks[0], "user");
}

TEST_F(QWorkerFaultTest, OpenBreakerDegradesWithoutCallingPrimary) {
  QWorker::Options options;
  options.application = "appX";
  options.breaker.window = 8;
  options.breaker.min_samples = 2;
  options.breaker.failure_ratio = 0.5;
  options.breaker.open_ms = 60000.0;  // stays open for the whole test
  QWorker worker(options);
  worker.Deploy(TrainedUserClassifier());
  worker.DeployFallback(TrainedUserClassifier());

  // Two injected failures trip the task breaker...
  util::FailpointSpec spec;
  spec.count = 2;
  util::Failpoints::Global().Arm("qworker.classifier_predict", spec);
  worker.Process(Query("SELECT 1"));
  worker.Process(Query("SELECT 1"));
  bool task_open = false;
  for (const auto& [name, state] : worker.BreakerStates()) {
    if (name == "appX:task_user") {
      task_open = state == CircuitBreaker::State::kOpen;
    }
  }
  EXPECT_TRUE(task_open);

  // ...after which the fallback serves without the failpoint firing
  // (breaker refuses before the injection site).
  ProcessedQuery out = worker.Process(Query("SELECT a FROM t WHERE x = 1"));
  EXPECT_EQ(out.predictions.at("user"), "alice");
  EXPECT_EQ(out.degraded_tasks.size(), 1u);
  EXPECT_EQ(util::Failpoints::Global().hits("qworker.classifier_predict"),
            2u);
}

TEST_F(QWorkerFaultTest, LintFailpointDoesNotLoseQuery) {
  QWorker::Options options;
  options.application = "appX";
  options.enable_lint = true;
  QWorker worker(options);
  worker.Deploy(TrainedUserClassifier());
  util::FailpointSpec spec;
  spec.code = util::StatusCode::kInternal;
  util::Failpoints::Global().Arm("qworker.lint", spec);
  ProcessedQuery out = worker.Process(Query("SELECT a FROM t WHERE x = 1"));
  EXPECT_EQ(out.predictions.at("user"), "alice");
  EXPECT_TRUE(out.diagnostics.empty());
  EXPECT_TRUE(out.status.ok());
}

TEST_F(QWorkerFaultTest, DeadlineForwardsPartialPredictions) {
  QWorker::Options options;
  options.application = "appX";
  options.deadline_ms = 5.0;
  options.enable_lint = true;
  QWorker worker(options);
  worker.Deploy(TrainedUserClassifier());
  // A 20ms injected delay on the classifier burns the whole 5ms budget;
  // after the first task the deadline is up (here there is only one task,
  // so the *lint* stage observes the pressure and stands down).
  util::FailpointSpec spec;
  spec.action = util::FailAction::kDelay;
  spec.delay_ms = 20.0;
  util::Failpoints::Global().Arm("qworker.lint", spec);
  (void)worker.Process(Query("SELECT a FROM t WHERE x = 1"));

  util::Failpoints::Global().DisarmAll();
  util::FailpointSpec slow;
  slow.action = util::FailAction::kDelay;
  slow.delay_ms = 20.0;
  util::Failpoints::Global().Arm("qworker.classifier_predict", slow);
  // Deploy a second task so the deadline can expire between tasks.
  auto second = TrainedUserClassifier();
  worker.Deploy(second);
  auto third = std::make_shared<Classifier>(
      "zz_late",
      std::make_shared<embed::FeatureEmbedder>(
          embed::FeatureEmbedder::Options{}),
      std::make_unique<ml::KnnClassifier>(ml::KnnClassifier::Options{.k = 1}));
  workload::Workload history;
  for (int i = 0; i < 4; ++i) {
    history.Add(Query("SELECT a FROM t WHERE x = 1", "alice"));
    history.Add(Query("SELECT b, c, d FROM u, v WHERE u.k = v.k", "bob"));
  }
  ASSERT_TRUE(third->Train(history, workload::UserOf).ok());
  worker.Deploy(third);

  ProcessedQuery out = worker.Process(Query("SELECT a FROM t WHERE x = 1"));
  // The first task ("user", map order) ate the budget via the delay;
  // "zz_late" was never attempted.
  EXPECT_TRUE(out.deadline_exceeded);
  EXPECT_EQ(out.predictions.count("zz_late"), 0u);
  EXPECT_FALSE(out.clean());
}

TEST_F(QWorkerFaultTest, BreakerStatesListsSinksAndTasks) {
  QWorker::Options options;
  options.application = "appX";
  QWorker worker(options);
  worker.Deploy(TrainedUserClassifier());
  auto states = worker.BreakerStates();
  std::vector<std::string> names;
  names.reserve(states.size());
  for (const auto& [name, state] : states) {
    names.push_back(name);
    EXPECT_EQ(state, CircuitBreaker::State::kClosed);
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "appX:sink_database"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "appX:sink_training"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "appX:task_user"),
            names.end());
  EXPECT_TRUE(worker.Undeploy("user"));
  EXPECT_EQ(worker.BreakerStates().size(), 2u);  // task breaker retired
}

TEST_F(QWorkerFaultTest, DisabledBreakersStillConvertExceptions) {
  QWorker::Options options;
  options.application = "appX";
  options.enable_breakers = false;
  options.sink_retry.max_attempts = 1;
  QWorker worker(options);
  worker.Deploy(TrainedUserClassifier());
  worker.set_database_sink(
      [](const workload::LabeledQuery&) { throw std::runtime_error("x"); });
  ProcessedQuery out = worker.Process(Query("SELECT 1"));
  EXPECT_EQ(out.database_status.code(), util::StatusCode::kInternal);
  EXPECT_TRUE(worker.BreakerStates().empty());
}

// ---------------------------------------------------------------------------
// Latency snapshot (idle-worker min regression)
// ---------------------------------------------------------------------------

TEST(QWorkerTest, LatencySnapshotEmptyThenPopulated) {
  QWorker::Options options;
  options.application = "appX";
  QWorker worker(options);
  obs::HistogramSnapshot empty = worker.latency_snapshot();
  EXPECT_EQ(empty.count, 0u);
  // An idle worker reports zeros, never garbage.
  EXPECT_DOUBLE_EQ(empty.min, 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.p99(), 0.0);

  worker.Process(Query("SELECT 1"));
  obs::HistogramSnapshot one = worker.latency_snapshot();
  EXPECT_EQ(one.count, 1u);
  EXPECT_GT(one.min, 0.0);
  EXPECT_TRUE(std::isfinite(one.min));
  EXPECT_DOUBLE_EQ(one.min, one.max);
}

// ---------------------------------------------------------------------------
// Stage histograms are scoped to serving
// ---------------------------------------------------------------------------

TEST(QWorkerTest, LexAndNormalizeStagesCountServedQueriesOnly) {
  obs::Histogram& lex = obs::StageHistogram("lex");
  obs::Histogram& normalize = obs::StageHistogram("normalize");
  QWorker::Options options;
  options.application = "appX";
  QWorker worker(options);
  worker.Deploy(TrainedUserClassifier());

  // Training-time tokenization is not served traffic.
  workload::Workload corpus;
  for (int i = 0; i < 30; ++i) {
    corpus.Add(Query("SELECT a FROM t WHERE x = " + std::to_string(i)));
  }
  embed::FeatureEmbedder embedder(embed::FeatureEmbedder::Options{});
  uint64_t lex_before = lex.Snapshot().count;
  uint64_t normalize_before = normalize.Snapshot().count;
  ASSERT_TRUE(embed::TrainOnWorkload(embedder, corpus).ok());
  EXPECT_EQ(lex.Snapshot().count, lex_before);
  EXPECT_EQ(normalize.Snapshot().count, normalize_before);

  // Each served query lexes and normalizes exactly once, cache hit or
  // miss, with lint reading the same tokens.
  constexpr size_t kServed = 12;
  for (size_t i = 0; i < kServed; ++i) {
    worker.Process(Query("SELECT a FROM t WHERE x = " + std::to_string(i % 3)));
  }
  EXPECT_EQ(lex.Snapshot().count, lex_before + kServed);
  EXPECT_EQ(normalize.Snapshot().count, normalize_before + kServed);
}

}  // namespace
}  // namespace querc::core
