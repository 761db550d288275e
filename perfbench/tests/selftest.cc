// Self-tests of the benchmark's own machinery. Run them with
//   python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

#include "embed/doc2vec.h"
#include "loops.h"
#include "ml/random_forest.h"
#include "output_check.h"
#include "querc/qworker.h"
#include "runner.h"
#include "stats.h"
#include "workload/snowflake_gen.h"
#include "workloads.h"

namespace perfbench {
namespace {

using querc::workload::Workload;

// --- The same seed gives the same schedule and stream. ---------------------

TEST(Determinism, SameSeedSameSchedule) {
  EXPECT_EQ(PoissonSchedule(7, 5000.0, 0.5), PoissonSchedule(7, 5000.0, 0.5));
  EXPECT_NE(PoissonSchedule(7, 5000.0, 0.5), PoissonSchedule(8, 5000.0, 0.5));
}

TEST(Determinism, ScheduleHasTheOfferedRate) {
  std::vector<double> arrivals = PoissonSchedule(3, 4000.0, 2.0);
  EXPECT_NEAR(static_cast<double>(arrivals.size()), 8000.0, 4 * std::sqrt(8000.0));
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
  EXPECT_GE(arrivals.front(), 0.0);
  EXPECT_LT(arrivals.back(), 2.0);
}

TEST(Determinism, SameSeedSameStream) {
  for (const char* name : {"paper_mix", "long_tail"}) {
    WorkloadSpec spec = *FindWorkload(name);
    Inputs a = MakeInputs(spec, 5);
    Inputs b = MakeInputs(spec, 5);
    Inputs c = MakeInputs(spec, 6);
    ASSERT_EQ(a.stream.size(), b.stream.size()) << name;
    ASSERT_GT(a.stream.size(), 0u);
    ASSERT_GT(a.history.size(), 0u);
    bool same = true;
    bool differs = a.stream.size() != c.stream.size();
    for (size_t i = 0; i < a.stream.size(); ++i) {
      same = same && a.stream[i].text == b.stream[i].text &&
             a.stream[i].user == b.stream[i].user;
      differs = differs ||
                (i < c.stream.size() && a.stream[i].text != c.stream[i].text);
    }
    EXPECT_TRUE(same) << name;
    EXPECT_TRUE(differs) << name;
  }
}

// --- The percentile rule. ---------------------------------------------------

TEST(Percentiles, HighestQuantileWithTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedQuantile(19), 0.0);
  EXPECT_EQ(HighestSupportedQuantile(20), 0.5);
  EXPECT_EQ(HighestSupportedQuantile(100), 0.9);
  EXPECT_EQ(HighestSupportedQuantile(999), 0.9);
  EXPECT_EQ(HighestSupportedQuantile(1000), 0.99);
  EXPECT_EQ(HighestSupportedQuantile(9999), 0.99);
  EXPECT_EQ(HighestSupportedQuantile(10000), 0.999);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
}

TEST(Percentiles, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 0.5), 50.0);
  EXPECT_EQ(Percentile(v, 0.99), 99.0);
  EXPECT_EQ(Percentile(v, 1.0), 100.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0, 4.0}), 2.5);
  LatencySummary s = Summarize(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_FALSE(s.p99_supported());
}

// --- The output check catches a wrong labeler. -----------------------------

class OutputCheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    querc::workload::SnowflakeGenerator::Options options;
    options.seed = 11;
    options.accounts =
        querc::workload::SnowflakeGenerator::UniformAccounts(3, 60, 2);
    stream_ = querc::workload::SnowflakeGenerator(options).Generate();
    querc::embed::Doc2VecEmbedder::Options embed_options;
    embed_options.dim = 8;
    embed_options.epochs = 2;
    embed_options.mode = querc::embed::Doc2VecEmbedder::Mode::kDbow;
    auto embedder =
        std::make_shared<querc::embed::Doc2VecEmbedder>(embed_options);
    ASSERT_TRUE(querc::embed::TrainOnWorkload(*embedder, stream_).ok());
    embedder_ = embedder;
  }

  std::shared_ptr<const querc::core::Classifier> Labeler(
      querc::core::LabelExtractor label_of) {
    auto classifier = std::make_shared<querc::core::Classifier>(
        "account", embedder_,
        std::make_unique<querc::ml::RandomForestClassifier>(
            querc::ml::RandomForestClassifier::Options{}));
    EXPECT_TRUE(classifier->Train(stream_, label_of).ok());
    return classifier;
  }

  /// Serves the stream through a QWorker running `labeler`; returns how
  /// many outputs the reference check rejects.
  size_t Mismatches(const Reference& reference,
                    std::shared_ptr<const querc::core::Classifier> labeler) {
    querc::core::QWorker worker(querc::core::QWorker::Options{});
    worker.Deploy(std::move(labeler));
    size_t bad = 0;
    std::vector<querc::core::ProcessedQuery> out = worker.ProcessBatch(stream_);
    for (size_t i = 0; i < out.size(); ++i) {
      bad += reference.Check(out[i], i).empty() ? 0 : 1;
    }
    return bad;
  }

  static std::vector<std::string> RuleIdsOf(
      const querc::core::ProcessedQuery& q) {
    std::vector<std::string> ids;
    for (const auto& d : q.diagnostics) ids.push_back(d.rule_id);
    return ids;
  }

  Workload stream_;
  std::shared_ptr<const querc::embed::Embedder> embedder_;
};

TEST_F(OutputCheckTest, PassesTheRightLabelerAndCatchesAWrongOne) {
  querc::util::ThreadPool pool(2);
  Reference reference = Reference::ForStream(stream_, pool);
  reference.AddPredictions({Labeler(querc::workload::AccountOf)},
                           stream_.size(), 1, pool);
  EXPECT_EQ(reference.sample_size(), stream_.size());
  EXPECT_GT(reference.label_accuracy(), 0.0);

  EXPECT_EQ(Mismatches(reference, Labeler(querc::workload::AccountOf)), 0u);
  // Same task name, but trained to answer with the wrong tenant.
  auto wrong = Labeler([](const querc::workload::LabeledQuery& q) {
    return "not-" + q.account;
  });
  EXPECT_EQ(Mismatches(reference, wrong), stream_.size());
}

TEST_F(OutputCheckTest, CatchesShedAndLintDifferences) {
  querc::util::ThreadPool pool(2);
  Reference reference = Reference::ForStream(stream_, pool);
  querc::core::ProcessedQuery shed;
  shed.query = stream_[0];
  shed.shed = true;
  shed.status = querc::util::Status::ResourceExhausted("shed");
  EXPECT_FALSE(reference.Check(shed, 0).empty());

  querc::core::ProcessedQuery extra;
  extra.query = stream_[0];
  querc::sql::lint::Diagnostic d;
  d.rule_id = "made-up-rule";
  extra.diagnostics.push_back(d);
  EXPECT_FALSE(reference.Check(extra, 0).empty());
}

TEST_F(OutputCheckTest, CatchesSwappedOutputs) {
  querc::util::ThreadPool pool(2);
  Reference reference = Reference::ForStream(stream_, pool);
  querc::core::QWorker worker(querc::core::QWorker::Options{});
  worker.Deploy(Labeler(querc::workload::AccountOf));
  std::vector<querc::core::ProcessedQuery> out = worker.ProcessBatch(stream_);
  // Two outputs with equal lint results, returned in each other's place.
  size_t a = 0;
  size_t b = 1;
  while (b < out.size() && (out[b].query.text == out[a].query.text ||
                            RuleIdsOf(out[b]) != RuleIdsOf(out[a]))) {
    ++b;
  }
  ASSERT_LT(b, out.size());
  EXPECT_TRUE(reference.Check(out[a], a).empty());
  EXPECT_TRUE(reference.Check(out[b], b).empty());
  std::swap(out[a], out[b]);
  EXPECT_FALSE(reference.Check(out[a], a).empty());
  EXPECT_FALSE(reference.Check(out[b], b).empty());
}

// --- Dispatch wait + batch time add up to response time. -------------------

TEST(OpenLoop, WaitPlusBatchIsResponse) {
  std::vector<double> schedule = PoissonSchedule(4, 3000.0, 0.3);
  size_t served = 0;
  OpenLoopResult r = RunOpenLoop(
      schedule,
      [&](size_t count, CallStamps* s) {
        s->call = Clock::now();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        s->ret = Clock::now();
        served += count;
      },
      [] { return false; });
  ASSERT_EQ(served, schedule.size());
  ASSERT_EQ(r.response_ms.size(), schedule.size());
  for (size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_NEAR(r.dispatch_wait_ms[i] + r.batch_ms[i], r.response_ms[i], 1e-6);
    EXPECT_GE(r.dispatch_wait_ms[i], 0.0);  // never sent before it was due
    EXPECT_GE(r.batch_ms[i], 0.2);
  }
  EXPECT_FALSE(r.overloaded);
}

TEST(OpenLoop, FlagsAGrowingBacklog) {
  // Each call takes 1 ms per query while queries arrive every 0.5 ms on
  // average: the backlog grows for the whole phase.
  std::vector<double> schedule = PoissonSchedule(9, 2000.0, 0.2);
  OpenLoopResult r = RunOpenLoop(
      schedule,
      [](size_t count, CallStamps* s) {
        s->call = Clock::now();
        std::this_thread::sleep_for(std::chrono::milliseconds(count));
        s->ret = Clock::now();
      },
      [] { return false; });
  EXPECT_TRUE(r.overloaded);
  EXPECT_FALSE(BacklogGrows(std::vector<double>(100, 0.3)));
}

TEST(OpenLoop, StopsWhenDone) {
  std::vector<double> schedule = PoissonSchedule(2, 2000.0, 1.0);
  size_t served = 0;
  OpenLoopResult r = RunOpenLoop(
      schedule,
      [&](size_t count, CallStamps* s) {
        s->call = s->ret = Clock::now();
        served += count;
      },
      After(0.1));
  EXPECT_EQ(r.response_ms.size(), served);
  EXPECT_LT(served, schedule.size() / 2);
  EXPECT_LT(r.wall_s, 0.2);
}

// --- retrain_under_load runs end to end. ----------------------------------

// BENCHMARK.json leaves this workload out, so nothing else runs it: a short
// traced run keeps its path (retrain cycles beside every phase, training
// deltas in the per-layer metrics) from rotting. It writes its run files to
// the working directory.
TEST(RetrainUnderLoad, ShortTracedRunPasses) {
  Config config;
  config.spec = *FindWorkload("retrain_under_load");
  EXPECT_TRUE(config.spec.retrain());
  config.seed = 3;
  config.seconds = 1.0;
  config.trace = true;
  config.light_qps = 200.0;
  config.heavy_qps = 400.0;
  config.out_dir = ".";
  EXPECT_EQ(RunBenchmark(config), 0);
}

}  // namespace
}  // namespace perfbench
