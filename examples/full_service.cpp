// Scenario: the complete Querc deployment of the paper's Figure 1.
//
// Three applications X, Y, Z, each with its own query stream and database.
// X and Y are tenants that permit log sharing, so they share EmbedderA
// trained on their combined workloads; Z keeps its logs private and gets
// its own EmbedderB. The central training module trains per-application
// labelers over the shared representations and deploys them to each
// application's QWorker; processed queries tee back for the next batch
// training job. A drift check decides when retraining is due.
//
// X, the busiest application, runs a sharded QWorkerPool: its stream is
// hashed across 4 QWorker shards and batches are labeled in parallel —
// the paper's "QWorkers can be load-balanced and parallelized in the
// usual ways" (§2). Deployments are snapshot swaps, so the training
// module can hot-swap retrained classifiers while queries are in flight.
//
// Build & run:  ./build/examples/full_service

#include <algorithm>
#include <cstdio>
#include <memory>

#include "ml/random_forest.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/stats_reporter.h"
#include "querc/drift.h"
#include "querc/querc.h"

namespace {

using namespace querc;

workload::Workload AppWorkload(const char* account, uint64_t seed,
                               int queries) {
  workload::SnowflakeGenerator::Options options;
  options.seed = seed;
  workload::SnowflakeGenerator::AccountSpec spec;
  spec.name = account;
  spec.num_users = 5;
  spec.num_queries = queries;
  spec.shared_query_rate = 0.05;
  options.accounts = {spec};
  return workload::SnowflakeGenerator(options).Generate();
}

std::shared_ptr<embed::Doc2VecEmbedder> TrainEmbedder(
    const workload::Workload& corpus, const char* label) {
  embed::Doc2VecEmbedder::Options options;
  options.dim = 20;
  options.epochs = 8;
  auto embedder = std::make_shared<embed::Doc2VecEmbedder>(options);
  util::Status status = embed::TrainOnWorkload(*embedder, corpus);
  std::printf("trained %s on %zu queries: %s\n", label, corpus.size(),
              status.ToString().c_str());
  return embedder;
}

}  // namespace

int main() {
  // --- query streams (left edge of Figure 1) ---
  workload::Workload x = AppWorkload("appx", 11, 600);
  workload::Workload y = AppWorkload("appy", 12, 600);
  workload::Workload z = AppWorkload("appz", 13, 600);

  // --- embedders: EmbedderA(X, Y) shared; EmbedderB(Z) private ---
  workload::Workload xy = x;
  xy.Append(y);
  auto embedder_a = TrainEmbedder(xy, "EmbedderA(X,Y)");
  auto embedder_b = TrainEmbedder(z, "EmbedderB(Z)");

  // --- central training module ---
  core::TrainingModule module({});
  module.RegisterEmbedder("EmbedderA", embedder_a);
  module.RegisterEmbedder("EmbedderB", embedder_b);
  module.ImportLogs("X", x);
  module.ImportLogs("Y", y);
  module.ImportLogs("Z", z);

  auto job = [](const char* app, const char* embedder,
                core::LabelExtractor label, const char* task) {
    core::TrainingModule::TrainJob j;
    j.task_name = task;
    j.application = app;
    j.embedder_name = embedder;
    j.label_of = std::move(label);
    return j;  // default labeler: randomized decision forest
  };

  // --- per-application workers; X is sharded, gets user + cluster ---
  core::QWorkerPool::Options pool_options;
  pool_options.application = "X";
  // Shard count follows the machine (capped: the demo stream is small).
  pool_options.num_shards = std::min<size_t>(4, util::DefaultThreadCount());
  pool_options.partition = core::QWorkerPool::Partition::kByUser;
  core::QWorkerPool pool_x(pool_options);
  core::QWorker worker_y({.application = "Y"});
  core::QWorker worker_z({.application = "Z", .forward_to_database = false});
  util::Status status = module.TrainAndDeploy(
      {job("X", "EmbedderA", workload::UserOf, "user"),
       job("X", "EmbedderA", workload::ClusterOf, "cluster")},
      pool_x);
  if (!status.ok()) return 1;
  (void)module.TrainAndDeploy({job("Y", "EmbedderA", workload::UserOf,
                                   "user")},
                              worker_y);
  (void)module.TrainAndDeploy({job("Z", "EmbedderB", workload::UserOf,
                                   "user")},
                              worker_z);

  // Tee labeled queries back to the training module (Figure 1's loop).
  // Collect() locks internally, so the sink is safe to call from every
  // shard concurrently.
  pool_x.set_training_sink([&](const core::ProcessedQuery& pq) {
    module.Collect("X", pq);
  });

  // --- steady state: a batch arrives, shards label it in parallel ---
  workload::Workload batch;
  for (size_t i = 0; i < 200; ++i) batch.Add(x[i]);
  auto outputs = pool_x.ProcessBatch(batch);
  int correct = 0;
  int total = 0;
  for (size_t i = 0; i < outputs.size(); ++i) {
    correct += outputs[i].predictions.at("user") == batch[i].user ? 1 : 0;
    ++total;
  }
  std::printf("X stream: %d/%d user predictions correct across %zu shards\n",
              correct, total, pool_x.num_shards());
  for (const auto& s : pool_x.Stats()) {
    std::printf("  shard %zu: %zu queries, %zu classifiers, latency "
                "p50/p99/max %.3f/%.3f/%.3f ms\n",
                s.shard, s.processed, s.num_classifiers, s.histogram.p50(),
                s.histogram.p99(), s.histogram.max);
  }
  obs::HistogramSnapshot pooled = pool_x.MergedLatency();
  std::printf("  pooled: count=%llu p50=%.3f p99=%.3f max=%.3f ms\n",
              static_cast<unsigned long long>(pooled.count), pooled.p50(),
              pooled.p99(), pooled.max);

  // --- telemetry: the same run seen through the obs registry ---
  // Every pipeline stage the batch passed through recorded a span into
  // querc_stage_ms{stage=...}; one summary line shows the whole shape.
  std::printf("pipeline stages (ms):\n");
  auto stages = obs::MetricsRegistry::Global().Collect("querc_stage_ms");
  for (const auto& sample : stages.histograms) {
    std::string stage;
    for (const auto& [key, value] : sample.labels) {
      if (key == "stage") stage = value;
    }
    std::printf("  %-14s n=%-6llu p50=%.3f p99=%.3f max=%.3f\n",
                stage.c_str(),
                static_cast<unsigned long long>(sample.snapshot.count),
                sample.snapshot.p50(), sample.snapshot.p99(),
                sample.snapshot.max);
  }
  obs::StatsReporter reporter;
  std::printf("%s\n", reporter.SummaryLine().substr(0, 200).c_str());

  // --- drift check: should we retrain? ---
  core::DriftDetector detector(embedder_a, {});
  (void)detector.SetReference(x);
  auto quiet = detector.Check(y.FilterByAccount("appy"));
  workload::Workload shifted = AppWorkload("appnew", 99, 300);
  auto loud = detector.Check(shifted);
  std::printf("drift vs Y (same service):   centroid=%.2f novelty=%.2f -> "
              "%s\n",
              quiet.centroid_shift, quiet.novelty,
              quiet.retrain_recommended ? "retrain" : "steady");
  std::printf("drift vs new tenant:         centroid=%.2f novelty=%.2f -> "
              "%s\n",
              loud.centroid_shift, loud.novelty,
              loud.retrain_recommended ? "retrain" : "steady");
  return 0;
}
