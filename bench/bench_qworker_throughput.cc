// Microbenchmarks (google-benchmark): throughput of the hot online path —
// lexing, normalization, embedding, and end-to-end QWorker labeling — plus
// the offline building blocks (K-means, advisor what-if costing). Querc's
// QWorkers sit on (or beside) the query path, so per-query latency is the
// operative metric.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "engine/cost_model.h"
#include "ml/kmeans.h"
#include "ml/random_forest.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "querc/classifier.h"
#include "querc/qworker.h"
#include "querc/qworker_pool.h"
#include "sql/analyzer.h"
#include "sql/lexer.h"
#include "sql/normalizer.h"
#include "util/stopwatch.h"

namespace querc::bench {
namespace {

const workload::Workload& SharedWorkload() {
  static const workload::Workload* wl = [] {
    workload::SnowflakeGenerator::Options options;
    options.seed = 5;
    options.accounts =
        workload::SnowflakeGenerator::UniformAccounts(4, 250, 5);
    return new workload::Workload(
        workload::SnowflakeGenerator(options).Generate());
  }();
  return *wl;
}

const std::string& SampleQuery(size_t i) {
  const auto& wl = SharedWorkload();
  return wl[i % wl.size()].text;
}

void BM_Lex(benchmark::State& state) {
  size_t i = 0;
  sql::LexOptions options;
  options.dialect = sql::Dialect::kSnowflake;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sql::LexLenient(SampleQuery(i++), options));
  }
}
BENCHMARK(BM_Lex);

void BM_TokenizeForEmbedding(benchmark::State& state) {
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(embed::TokenizeForEmbedding(
        SampleQuery(i++), sql::Dialect::kSnowflake));
  }
}
BENCHMARK(BM_TokenizeForEmbedding);

void BM_Analyze(benchmark::State& state) {
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sql::AnalyzeText(SampleQuery(i++), sql::Dialect::kSnowflake));
  }
}
BENCHMARK(BM_Analyze);

const embed::Embedder& SharedEmbedder(bool lstm) {
  static const embed::Embedder* doc2vec = [] {
    auto options = Doc2VecBenchOptions();
    options.epochs = 3;
    auto* e = new embed::Doc2VecEmbedder(options);
    (void)embed::TrainOnWorkload(*e, SharedWorkload());
    return e;
  }();
  static const embed::Embedder* autoencoder = [] {
    auto options = LstmBenchOptions();
    options.epochs = 1;
    auto* e = new embed::LstmAutoencoderEmbedder(options);
    (void)embed::TrainOnWorkload(*e, SharedWorkload());
    return e;
  }();
  return lstm ? *autoencoder : *doc2vec;
}

void BM_EmbedDoc2Vec(benchmark::State& state) {
  const embed::Embedder& embedder = SharedEmbedder(false);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        embedder.EmbedQuery(SampleQuery(i++), sql::Dialect::kSnowflake));
  }
}
BENCHMARK(BM_EmbedDoc2Vec);

void BM_EmbedLstm(benchmark::State& state) {
  const embed::Embedder& embedder = SharedEmbedder(true);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        embedder.EmbedQuery(SampleQuery(i++), sql::Dialect::kSnowflake));
  }
}
BENCHMARK(BM_EmbedLstm);

/// The per-miss cost of the service's embedder: one Doc2Vec inference
/// (dim 16, PV-DBOW, 5 training epochs, default 24 inference epochs, as
/// perfbench's service trains it) on pre-tokenized queries, so nothing
/// but `Embed` is timed.
void BM_Doc2VecEmbedDbow16(benchmark::State& state) {
  static const embed::Doc2VecEmbedder* embedder = [] {
    embed::Doc2VecEmbedder::Options options;
    options.dim = 16;
    options.epochs = 5;
    options.mode = embed::Doc2VecEmbedder::Mode::kDbow;
    auto* e = new embed::Doc2VecEmbedder(options);
    (void)embed::TrainOnWorkload(*e, SharedWorkload());
    return e;
  }();
  std::vector<std::vector<std::string>> docs;
  for (size_t i = 0; i < 256; ++i) {
    docs.push_back(embed::TokenizeForEmbedding(SampleQuery(i),
                                               sql::Dialect::kSnowflake));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(embedder->Embed(docs[i++ % docs.size()]));
  }
}
BENCHMARK(BM_Doc2VecEmbedDbow16);

/// One trained (LSTM embedder, forest labeler) user classifier, shared by
/// the QWorker and QWorkerPool benchmarks so training cost is paid once.
std::shared_ptr<const core::Classifier> SharedUserClassifier() {
  static const std::shared_ptr<const core::Classifier> classifier = [] {
    auto embedder = std::make_shared<embed::LstmAutoencoderEmbedder>([] {
      auto o = LstmBenchOptions();
      o.epochs = 1;
      return o;
    }());
    (void)embed::TrainOnWorkload(*embedder, SharedWorkload());
    auto c = std::make_shared<core::Classifier>(
        "user", embedder,
        std::make_unique<ml::RandomForestClassifier>(
            ml::RandomForestClassifier::Options{.num_trees = 20}));
    (void)c->Train(SharedWorkload(), workload::UserOf);
    return c;
  }();
  return classifier;
}

void BM_QWorkerProcess(benchmark::State& state) {
  // End-to-end online path: embed + label through a deployed classifier.
  core::QWorker::Options options;
  options.application = "bench";
  core::QWorker worker(options);
  worker.Deploy(SharedUserClassifier());

  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(worker.Process(SharedWorkload()[i++ %
                                                             SharedWorkload()
                                                                 .size()]));
  }
  state.counters["queries_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_QWorkerProcess);

/// End-to-end sharded service layer: one whole workload batch fanned out
/// across N QWorker shards on the pool's thread pool. Arg = shard count;
/// the scaling curve is the paper's "parallelized in the usual ways"
/// claim made measurable.
void BM_QWorkerPoolProcessBatch(benchmark::State& state) {
  core::QWorkerPool::Options options;
  options.application = "bench-pool";
  options.num_shards = static_cast<size_t>(state.range(0));
  // Round-robin spreads the batch uniformly so the benchmark measures
  // scaling, not the workload's tenant skew.
  options.partition = core::QWorkerPool::Partition::kRoundRobin;
  core::QWorkerPool pool(options);
  pool.Deploy(SharedUserClassifier());

  const workload::Workload& batch = SharedWorkload();
  util::Stopwatch timer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.ProcessBatch(batch));
  }
  double seconds = timer.ElapsedSeconds();
  state.counters["queries_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(batch.size()),
      benchmark::Counter::kIsRate);
  auto stats = pool.Stats();
  double max_shard_mean = 0.0;
  for (const auto& s : stats) {
    max_shard_mean = std::max(max_shard_mean, s.histogram.mean());
  }
  state.counters["shard_mean_ms"] = max_shard_mean;

  // Publish the headline numbers as labeled gauges so main() can dump
  // them to BENCH_qworker.json through the obs JSON exporter.
  obs::HistogramSnapshot merged = pool.MergedLatency();
  obs::Labels labels = {{"shards", std::to_string(state.range(0))}};
  auto& registry = obs::MetricsRegistry::Global();
  registry
      .GetGauge("bench_qworker_qps", labels,
                "ProcessBatch throughput in queries per second")
      .Set(static_cast<double>(state.iterations()) *
           static_cast<double>(batch.size()) / std::max(seconds, 1e-12));
  registry
      .GetGauge("bench_qworker_p50_ms", labels,
                "Median per-query QWorker latency across shards")
      .Set(merged.p50());
  registry
      .GetGauge("bench_qworker_p99_ms", labels,
                "p99 per-query QWorker latency across shards")
      .Set(merged.p99());
}
BENCHMARK(BM_QWorkerPoolProcessBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

/// Same pool, tenant-affine sharding: accounts hash to shards, so skewed
/// tenants bound the speedup — the load-balancing trade-off in one number.
void BM_QWorkerPoolByAccount(benchmark::State& state) {
  core::QWorkerPool::Options options;
  options.application = "bench-pool-acct";
  options.num_shards = static_cast<size_t>(state.range(0));
  options.partition = core::QWorkerPool::Partition::kByAccount;
  core::QWorkerPool pool(options);
  pool.Deploy(SharedUserClassifier());

  const workload::Workload& batch = SharedWorkload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.ProcessBatch(batch));
  }
  state.counters["queries_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(batch.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_QWorkerPoolByAccount)->Arg(4)->UseRealTime();

/// The closed-loop shape of perfbench's paper_mix: 64-query batches
/// sharded by account, with one account per shard and the batch split
/// 46/6/15/34% across them like the Table 2 tenants. The busiest shard
/// holds 29 of the 64 queries, so a pool that balanced by shard would
/// wait on it; every query is a cache hit after the warm-up batches.
void BM_QWorkerPoolSkewedBatch(benchmark::State& state) {
  core::QWorkerPool::Options options;
  options.application = "bench-pool-skew";
  options.num_shards = static_cast<size_t>(state.range(0));
  options.partition = core::QWorkerPool::Partition::kByAccount;
  core::QWorkerPool pool(options);
  pool.Deploy(SharedUserClassifier());

  // Shares of a 64-query batch; share t goes to an account on shard
  // t mod num_shards.
  constexpr size_t kBatch = 64;
  const size_t shares[] = {29, 4, 10, 21};
  std::vector<std::string> accounts;
  for (size_t t = 0; t < std::size(shares); ++t) {
    workload::LabeledQuery probe;
    for (size_t k = 0;; ++k) {
      probe.account = "tenant" + std::to_string(k);
      if (pool.ShardOf(probe) == t % pool.num_shards()) break;
    }
    accounts.push_back(probe.account);
  }
  std::vector<size_t> owner;
  for (size_t t = 0; t < std::size(shares); ++t) {
    owner.insert(owner.end(), shares[t], t);
  }
  // Interleave the tenants through the batch (37 is coprime with 64).
  std::vector<workload::Workload> batches;
  const workload::Workload& all = SharedWorkload();
  for (size_t first = 0; first + kBatch <= all.size(); first += kBatch) {
    workload::Workload batch;
    for (size_t k = 0; k < kBatch; ++k) {
      workload::LabeledQuery q = all[first + k];
      q.account = accounts[owner[(k * 37) % kBatch]];
      batch.Add(q);
    }
    batches.push_back(std::move(batch));
  }
  for (const auto& batch : batches) (void)pool.ProcessBatch(batch);

  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.ProcessBatch(batches[i++ % batches.size()]));
  }
  state.counters["queries_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(kBatch),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_QWorkerPoolSkewedBatch)->Arg(4)->UseRealTime();

void BM_KMeansSummarize(benchmark::State& state) {
  const embed::Embedder& embedder = SharedEmbedder(false);
  static const std::vector<nn::Vec>* vectors = [&] {
    auto* v = new std::vector<nn::Vec>(
        embed::EmbedWorkload(embedder, SharedWorkload()));
    return v;
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ml::KMeans(*vectors, static_cast<size_t>(state.range(0))));
  }
}
BENCHMARK(BM_KMeansSummarize)->Arg(8)->Arg(32);

void BM_WhatIfCosting(benchmark::State& state) {
  static const engine::Catalog catalog = engine::TpchCatalog();
  engine::CostModel model(&catalog);
  util::Rng rng(3);
  std::vector<sql::QueryShape> shapes;
  for (int q = 1; q <= 22; ++q) {
    shapes.push_back(sql::AnalyzeText(
        workload::TpchGenerator::Instantiate(q, rng),
        sql::Dialect::kSqlServer));
  }
  engine::IndexConfig config = {{"lineitem", {"l_shipdate"}},
                                {"orders", {"o_orderdate"}}};
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Cost(shapes[i++ % shapes.size()], config));
  }
}
BENCHMARK(BM_WhatIfCosting);

}  // namespace
}  // namespace querc::bench

// Custom main instead of BENCHMARK_MAIN(): after the run, every
// bench_-prefixed metric is written to BENCH_qworker.json so CI and
// scripts get machine-readable qps/p50/p99 per shard count without
// scraping the human-oriented console table.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::string json = querc::obs::ExportJson(
      querc::obs::MetricsRegistry::Global(), "bench_");
  const char* path = "BENCH_qworker.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path);
  return 0;
}
