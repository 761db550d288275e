// querc — command-line front end for the Querc workload-management
// library. Workloads travel as CSV (workload/io.h), trained embedders as
// binary model files (embed/model_io.h).
//
//   querc generate   --kind tpch|snowflake [--seed N] [--accounts N]
//                    [--queries N] [--users N] --out workload.csv
//   querc train      --embedder doc2vec|dbow|lstm --workload w.csv
//                    --model m.bin [--dim N] [--epochs N]
//   querc summarize  --model m.bin --workload w.csv [--k N]
//                    [--out summary.csv]
//   querc tune       --workload w.csv [--budget MIN] [--merge]
//                    [--storage MB]
//   querc audit      --model m.bin --history h.csv --batch b.csv
//                    [--confidence F]
//   querc label      --model m.bin --history h.csv --batch b.csv
//                    --task user|account|cluster
//   querc pool       --model m.bin --history h.csv --batch b.csv
//                    [--task t] [--shards N] [--threads N]
//                    [--partition account|user|rr] [--embed-cache N]
//   querc stats      [--model m.bin --history h.csv --batch b.csv]
//                    [--task t] [--shards N] [--threads N]
//                    [--partition account|user|rr]
//                    [--repeat N] [--format text|prom|json] [--out file]
//                    [--report-ms N] [--embed-cache N]
//   querc lint       --workload w.csv | --stdin [--dialect d]
//                    [--format text|json|sarif] [--advise] [--fail-on sev]
//   querc chaos      [--shards N] [--faults N] [--sink-failure-rate F]
//                    [--max-in-flight N] [--out report.json] [--flightrec]
//   querc trace      [--queries N] [--shards N] [--threads N] [--slowest N]
//                    [--out trace.json]
//   querc info       --model m.bin

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "embed/model_io.h"
#include "engine/advisor.h"
#include "engine/explain.h"
#include "engine/cost_model.h"
#include "engine/lint_advisor.h"
#include "sql/lexer.h"
#include "sql/lint/export.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/stats_reporter.h"
#include "querc/querc.h"
#include "querc/drift.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/topology.h"
#include "workload/io.h"

namespace querc::cli {
namespace {

/// Minimal --flag value parser: flags are "--name value"; bare "--name"
/// is a boolean.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) continue;
      key = key.substr(2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "true";
      }
    }
  }

  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  int GetInt(const std::string& key, int fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atoi(it->second.c_str());
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }
  bool GetBool(const std::string& key) const {
    return values_.count(key) > 0;
  }

 private:
  std::map<std::string, std::string> values_;
};

int Fail(const util::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Shared sizing flags (DESIGN.md §17). `--shards` defaults to one
/// QWorker shard per cpu (util::DefaultThreadCount()), capped per command
/// so demo output stays readable; `--threads` sizes the pool's workers
/// (0 = the pool decides from the same cpu count).
size_t ShardsFlag(const Args& args, size_t cap) {
  int v = args.GetInt("shards", 0);
  if (v > 0) return static_cast<size_t>(v);
  return std::min(util::DefaultThreadCount(), cap);
}

size_t ThreadsFlag(const Args& args) {
  return static_cast<size_t>(std::max(0, args.GetInt("threads", 0)));
}

util::StatusOr<workload::Workload> LoadWorkload(const Args& args,
                                                const std::string& flag) {
  std::string path = args.Get(flag);
  if (path.empty()) {
    return util::Status::InvalidArgument("missing --" + flag);
  }
  return workload::ReadWorkloadCsvFile(path);
}

int CmdGenerate(const Args& args) {
  std::string kind = args.Get("kind", "snowflake");
  std::string out = args.Get("out");
  if (out.empty()) return Fail(util::Status::InvalidArgument("missing --out"));
  workload::Workload wl;
  if (kind == "tpch") {
    workload::TpchGenerator::Options options;
    options.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
    options.instances_per_template = args.GetInt("instances", 38);
    wl = workload::TpchGenerator(options).Generate();
  } else if (kind == "snowflake") {
    workload::SnowflakeGenerator::Options options;
    options.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
    options.accounts = workload::SnowflakeGenerator::UniformAccounts(
        args.GetInt("accounts", 5), args.GetInt("queries", 500),
        args.GetInt("users", 5));
    options.account_skew = args.GetDouble("account-skew", 0.0);
    wl = workload::SnowflakeGenerator(options).Generate();
  } else if (kind == "table2") {
    workload::SnowflakeGenerator::Options options;
    options.seed = static_cast<uint64_t>(args.GetInt("seed", 77));
    options.accounts = workload::SnowflakeGenerator::Table2Accounts();
    options.account_skew = args.GetDouble("account-skew", 0.0);
    wl = workload::SnowflakeGenerator(options).Generate();
  } else {
    return Fail(util::Status::InvalidArgument("unknown --kind " + kind));
  }
  util::Status status = workload::WriteWorkloadCsvFile(wl, out);
  if (!status.ok()) return Fail(status);
  std::printf("wrote %zu queries (%zu distinct shapes) to %s\n", wl.size(),
              wl.DistinctShapes(), out.c_str());
  return 0;
}

int CmdTrain(const Args& args) {
  auto wl = LoadWorkload(args, "workload");
  if (!wl.ok()) return Fail(wl.status());
  std::string model_path = args.Get("model");
  if (model_path.empty()) {
    return Fail(util::Status::InvalidArgument("missing --model"));
  }
  std::string kind = args.Get("embedder", "lstm");
  std::unique_ptr<embed::Embedder> embedder;
  if (kind == "doc2vec" || kind == "dbow") {
    embed::Doc2VecEmbedder::Options options;
    options.dim = static_cast<size_t>(args.GetInt("dim", 24));
    options.epochs = args.GetInt("epochs", 10);
    options.mode = kind == "dbow" ? embed::Doc2VecEmbedder::Mode::kDbow
                                  : embed::Doc2VecEmbedder::Mode::kDm;
    embedder = std::make_unique<embed::Doc2VecEmbedder>(options);
  } else if (kind == "lstm") {
    embed::LstmAutoencoderEmbedder::Options options;
    options.hidden_dim = static_cast<size_t>(args.GetInt("dim", 32));
    options.epochs = args.GetInt("epochs", 8);
    embedder = std::make_unique<embed::LstmAutoencoderEmbedder>(options);
  } else {
    return Fail(util::Status::InvalidArgument("unknown --embedder " + kind));
  }
  std::printf("training %s on %zu queries...\n", embedder->name().c_str(),
              wl->size());
  util::Status status = embed::TrainOnWorkload(*embedder, *wl);
  if (!status.ok()) return Fail(status);
  status = embed::SaveEmbedderFile(*embedder, model_path);
  if (!status.ok()) return Fail(status);
  std::printf("saved %s (dim=%zu) to %s\n", embedder->name().c_str(),
              embedder->dim(), model_path.c_str());
  return 0;
}

int CmdInfo(const Args& args) {
  auto embedder = embed::LoadEmbedderFile(args.Get("model"));
  if (!embedder.ok()) return Fail(embedder.status());
  std::printf("model: %s, dim=%zu\n", (*embedder)->name().c_str(),
              (*embedder)->dim());
  return 0;
}

int CmdSummarize(const Args& args) {
  auto embedder = embed::LoadEmbedderFile(args.Get("model"));
  if (!embedder.ok()) return Fail(embedder.status());
  auto wl = LoadWorkload(args, "workload");
  if (!wl.ok()) return Fail(wl.status());

  core::WorkloadSummarizer::Options options;
  options.fixed_k = static_cast<size_t>(args.GetInt("k", 0));
  std::shared_ptr<const embed::Embedder> shared(std::move(*embedder));
  core::WorkloadSummarizer summarizer(shared, options);
  auto summary = summarizer.Summarize(*wl);
  std::printf("summary: K=%zu witnesses from %zu queries\n",
              summary.queries.size(), wl->size());
  std::string out = args.Get("out");
  if (!out.empty()) {
    util::Status status = workload::WriteWorkloadCsvFile(summary.queries, out);
    if (!status.ok()) return Fail(status);
    std::printf("wrote witnesses to %s\n", out.c_str());
  } else {
    for (const auto& q : summary.queries) {
      std::printf("  %.100s%s\n", q.text.c_str(),
                  q.text.size() > 100 ? "..." : "");
    }
  }
  return 0;
}

int CmdTune(const Args& args) {
  auto wl = LoadWorkload(args, "workload");
  if (!wl.ok()) return Fail(wl.status());
  std::vector<std::string> texts;
  for (const auto& q : *wl) texts.push_back(q.text);

  engine::Catalog catalog = engine::TpchCatalog();
  engine::CostModel model(&catalog);
  engine::AdvisorOptions options;
  options.budget_minutes = args.GetDouble("budget", 10.0);
  options.max_storage_mb = args.GetDouble("storage", 0.0);
  options.enable_index_merging = args.GetBool("merge");
  engine::TuningAdvisor advisor(&model, options);
  auto rec = advisor.Recommend(texts);

  double baseline = engine::RunWorkload(model, texts, {}).total_seconds;
  double tuned = engine::RunWorkload(model, texts, rec.config).total_seconds;
  std::printf("recommendation: %s\n", engine::ConfigToString(rec.config).c_str());
  std::printf("storage: %.1f MB, refined: %s\n", rec.storage_mb,
              rec.completed_refinement ? "yes" : "no");
  std::printf("workload runtime: %.1fs -> %.1fs (%.0f%%)\n", baseline, tuned,
              100.0 * tuned / std::max(baseline, 1e-9));
  for (const auto& line : rec.log) std::printf("  %s\n", line.c_str());
  return 0;
}

/// The --model/--history/--batch inputs of the labeling commands.
struct LabelInputs {
  std::shared_ptr<const embed::Embedder> embedder;
  workload::Workload history;
  workload::Workload batch;
};

util::StatusOr<LabelInputs> LoadLabelInputs(const Args& args) {
  auto embedder = embed::LoadEmbedderFile(args.Get("model"));
  if (!embedder.ok()) return embedder.status();
  auto history = LoadWorkload(args, "history");
  if (!history.ok()) return history.status();
  auto batch = LoadWorkload(args, "batch");
  if (!batch.ok()) return batch.status();
  return LabelInputs{std::move(*embedder), std::move(*history),
                     std::move(*batch)};
}

/// The self-contained input of `stats` and `trace`: a generated snowflake
/// workload, used as history and batch alike, and a small dbow embedder
/// trained on it.
util::StatusOr<LabelInputs> GenerateLabelInputs(const Args& args,
                                                int default_epochs) {
  workload::SnowflakeGenerator::Options gopt;
  gopt.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  gopt.accounts = workload::SnowflakeGenerator::UniformAccounts(
      args.GetInt("accounts", 4), args.GetInt("queries", 240),
      args.GetInt("users", 3));
  LabelInputs in;
  in.history = workload::SnowflakeGenerator(gopt).Generate();
  in.batch = in.history;
  embed::Doc2VecEmbedder::Options eopt;
  eopt.dim = static_cast<size_t>(args.GetInt("dim", 16));
  eopt.epochs = args.GetInt("epochs", default_epochs);
  eopt.mode = embed::Doc2VecEmbedder::Mode::kDbow;
  auto embedder = std::make_shared<embed::Doc2VecEmbedder>(eopt);
  util::Status status = embed::TrainOnWorkload(*embedder, in.history);
  if (!status.ok()) return status;
  in.embedder = std::move(embedder);
  return in;
}

/// The `--task user|account|cluster` classifier (default user): a random
/// forest over `embedder`, trained on `history`.
struct TaskClassifier {
  std::string task;
  core::LabelExtractor extractor;
  std::shared_ptr<core::Classifier> classifier;
};

util::StatusOr<TaskClassifier> TrainTaskClassifier(
    const Args& args, std::shared_ptr<const embed::Embedder> embedder,
    const workload::Workload& history) {
  TaskClassifier out;
  out.task = args.Get("task", "user");
  if (out.task == "user") {
    out.extractor = workload::UserOf;
  } else if (out.task == "account") {
    out.extractor = workload::AccountOf;
  } else if (out.task == "cluster") {
    out.extractor = workload::ClusterOf;
  } else {
    return util::Status::InvalidArgument("unknown --task " + out.task);
  }
  out.classifier = std::make_shared<core::Classifier>(
      out.task, std::move(embedder),
      std::make_unique<ml::RandomForestClassifier>(
          ml::RandomForestClassifier::Options{}));
  util::Status status = out.classifier->Train(history, out.extractor);
  if (!status.ok()) return status;
  return out;
}

int CmdAudit(const Args& args) {
  auto in = LoadLabelInputs(args);
  if (!in.ok()) return Fail(in.status());

  core::SecurityAuditor::Options options;
  options.min_confidence = args.GetDouble("confidence", 0.6);
  core::SecurityAuditor auditor(in->embedder, options);
  util::Status status = auditor.Train(in->history);
  if (!status.ok()) return Fail(status);
  auto flags = auditor.Audit(in->batch);
  std::printf("%zu of %zu queries flagged for audit\n", flags.size(),
              in->batch.size());
  for (const auto& flag : flags) {
    std::printf("  #%zu recorded=%s predicted=%s confidence=%.2f\n",
                flag.query_index, flag.actual_user.c_str(),
                flag.predicted_user.c_str(), flag.confidence);
  }
  return 0;
}

int CmdLabel(const Args& args) {
  auto in = LoadLabelInputs(args);
  if (!in.ok()) return Fail(in.status());
  auto trained = TrainTaskClassifier(args, in->embedder, in->history);
  if (!trained.ok()) return Fail(trained.status());

  size_t correct = 0;
  for (const auto& q : in->batch) {
    std::string predicted = trained->classifier->Predict(q);
    if (predicted == trained->extractor(q)) ++correct;
  }
  std::printf("%s labeling: %zu/%zu correct (%.1f%%) on the batch\n",
              trained->task.c_str(), correct, in->batch.size(),
              100.0 * static_cast<double>(correct) /
                  static_cast<double>(std::max<size_t>(1, in->batch.size())));
  return 0;
}

/// Tenant-isolation flags shared by `pool` and `stats`:
///   --quota BURST[:RATE]          per-account token bucket (default for
///                                 every tenant; RATE in queries/sec)
///   --tenant-weight a=W,b=W2,...  weighted-fair shares under contention
/// Either flag switches the pool onto the tenant admission pipeline
/// (quota -> fairness -> global slots; DESIGN.md §16).
util::Status ApplyTenantFlags(const Args& args,
                              core::QWorkerPool::Options* options) {
  std::string quota = args.Get("quota");
  if (!quota.empty()) {
    std::vector<std::string> parts = util::Split(quota, ':');
    if (parts.size() > 2 || parts[0].empty()) {
      return util::Status::InvalidArgument(
          "--quota wants BURST[:RATE], got " + quota);
    }
    options->enable_tenant_admission = true;
    options->admission.default_quota.burst = std::atof(parts[0].c_str());
    if (parts.size() == 2) {
      options->admission.default_quota.rate_per_sec =
          std::atof(parts[1].c_str());
    }
  }
  std::string weights = args.Get("tenant-weight");
  if (!weights.empty()) {
    options->enable_tenant_admission = true;
    for (const std::string& entry : util::Split(weights, ',')) {
      std::vector<std::string> kv = util::Split(entry, '=');
      if (kv.size() != 2 || kv[0].empty()) {
        return util::Status::InvalidArgument(
            "--tenant-weight wants acct=W[,acct=W...], got " + entry);
      }
      core::TenantQuota& tenant = options->admission.tenants[kv[0]];
      tenant = options->admission.default_quota;
      tenant.weight = std::atof(kv[1].c_str());
    }
  }
  return util::Status::OK();
}

/// Pool flags shared by `pool` and `stats`: --shards/--threads sizing,
/// --max-in-flight, --embed-cache, the tenant flags and --partition.
util::StatusOr<core::QWorkerPool::Options> PoolOptionsFromFlags(
    const Args& args) {
  core::QWorkerPool::Options options;
  options.application = "cli";
  options.num_shards = ShardsFlag(args, 8);
  options.threads = ThreadsFlag(args);
  options.max_in_flight = static_cast<size_t>(args.GetInt("max-in-flight", 0));
  options.worker.embed_cache_capacity =
      static_cast<size_t>(args.GetInt("embed-cache", 4096));
  util::Status status = ApplyTenantFlags(args, &options);
  if (!status.ok()) return status;
  std::string partition = args.Get("partition", "account");
  if (partition == "account") {
    options.partition = core::QWorkerPool::Partition::kByAccount;
  } else if (partition == "user") {
    options.partition = core::QWorkerPool::Partition::kByUser;
  } else if (partition == "rr") {
    options.partition = core::QWorkerPool::Partition::kRoundRobin;
  } else {
    return util::Status::InvalidArgument("unknown --partition " + partition);
  }
  return options;
}

/// Prints the pool-wide embed-cache line; prints nothing and returns
/// false when the cache is disabled.
bool PrintEmbedCacheLine(const core::QWorkerPool& pool) {
  embed::EmbedCacheStats cache = pool.MergedEmbedCacheStats();
  if (cache.capacity == 0) return false;
  std::printf("embed cache: %llu hits / %llu misses (%.1f%% hit ratio), "
              "%llu evictions, %zu/%zu entries\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              100.0 * cache.hit_ratio(),
              static_cast<unsigned long long>(cache.evictions), cache.size,
              cache.capacity);
  return true;
}

/// Trains a classifier like `label`, then runs the batch through a
/// sharded QWorkerPool and reports per-shard throughput/latency — a
/// command-line view of the parallel service layer.
int CmdPool(const Args& args) {
  auto in = LoadLabelInputs(args);
  if (!in.ok()) return Fail(in.status());
  auto trained = TrainTaskClassifier(args, in->embedder, in->history);
  if (!trained.ok()) return Fail(trained.status());
  auto options = PoolOptionsFromFlags(args);
  if (!options.ok()) return Fail(options.status());
  core::QWorkerPool pool(*options);
  pool.Deploy(trained->classifier);

  const workload::Workload& batch = in->batch;
  util::Stopwatch timer;
  auto outputs = pool.ProcessBatch(batch);
  double seconds = timer.ElapsedSeconds();

  size_t correct = 0;
  size_t shed = 0;
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (outputs[i].shed) {
      ++shed;
      continue;
    }
    if (outputs[i].predictions.at(trained->task) ==
        trained->extractor(batch[i])) {
      ++correct;
    }
  }
  std::printf("%s labeling via %zu-shard pool (%s partition): %zu/%zu "
              "correct (%.1f%%), %.0f queries/sec\n",
              trained->task.c_str(), pool.num_shards(),
              args.Get("partition", "account").c_str(), correct, batch.size(),
              100.0 * static_cast<double>(correct) /
                  static_cast<double>(std::max<size_t>(1, batch.size())),
              static_cast<double>(batch.size()) / std::max(seconds, 1e-9));
  for (const auto& s : pool.Stats()) {
    std::printf("  shard %zu: %zu queries, latency min/mean/max "
                "%.3f/%.3f/%.3f ms, p50/p99 %.3f/%.3f ms\n",
                s.shard, s.processed, s.histogram.min, s.histogram.mean(),
                s.histogram.max, s.histogram.p50(), s.histogram.p99());
  }
  PrintEmbedCacheLine(pool);
  if (pool.admission() != nullptr) {
    std::printf("tenant admission: %zu shed (quota=%llu fairness=%llu "
                "global=%llu) across %zu tracked tenants\n",
                shed,
                (unsigned long long)pool.admission()->shed_for(
                    core::ShedReason::kQuota),
                (unsigned long long)pool.admission()->shed_for(
                    core::ShedReason::kFairness),
                (unsigned long long)pool.admission()->shed_for(
                    core::ShedReason::kGlobal),
                pool.admission()->tracked_tenants());
  }
  return 0;
}

/// One-stop observability demo. Runs a batch through a sharded
/// QWorkerPool and dumps the telemetry: per-shard latency percentiles,
/// the pooled histogram, per-stage span histograms, and optionally the
/// whole registry as Prometheus exposition text or JSON. With no flags
/// it is self-contained — it generates a snowflake workload and trains
/// a small dbow embedder in-process; pass --model/--history/--batch to
/// measure real inputs instead.
int CmdStats(const Args& args) {
  auto in = args.Get("model").empty() ? GenerateLabelInputs(args, 5)
                                      : LoadLabelInputs(args);
  if (!in.ok()) return Fail(in.status());
  auto trained = TrainTaskClassifier(args, in->embedder, in->history);
  if (!trained.ok()) return Fail(trained.status());
  auto options = PoolOptionsFromFlags(args);
  if (!options.ok()) return Fail(options.status());
  options->worker.deadline_ms = args.GetDouble("deadline-ms", 0.0);
  core::QWorkerPool pool(*options);
  pool.Deploy(trained->classifier);
  // No-op sinks so the full pipeline — including the sink retry/breaker
  // machinery and the qworker.sink_* failpoints — is exercised end to end.
  pool.set_database_sink([](const workload::LabeledQuery&) {});
  pool.set_training_sink([](const core::ProcessedQuery&) {});

  obs::StatsReporter::Options ropt;
  int report_ms = args.GetInt("report-ms", 0);
  if (report_ms > 0) {
    ropt.interval = std::chrono::milliseconds(report_ms);
  }
  obs::StatsReporter periodic(ropt);
  if (report_ms > 0) periodic.Start();

  int repeat = std::max(1, args.GetInt("repeat", 1));
  util::Stopwatch timer;
  for (int round = 0; round < repeat; ++round) {
    pool.ProcessBatch(in->batch);
  }
  double total_ms = timer.ElapsedSeconds() * 1000.0;
  if (report_ms > 0) periodic.Stop();

  std::string format = args.Get("format", "text");
  std::string export_text;
  if (format == "prom") {
    export_text = obs::ExportPrometheus();
  } else if (format == "json") {
    export_text = obs::ExportJson();
  } else if (format != "text") {
    return Fail(util::Status::InvalidArgument("unknown --format " + format));
  }
  if (!export_text.empty()) {
    std::string out = args.Get("out");
    if (out.empty()) {
      std::fputs(export_text.c_str(), stdout);
    } else {
      std::FILE* f = std::fopen(out.c_str(), "w");
      if (f == nullptr) {
        return Fail(util::Status::Internal("cannot open --out " + out));
      }
      std::fputs(export_text.c_str(), f);
      std::fclose(f);
      std::printf("wrote %s metrics to %s\n", format.c_str(), out.c_str());
    }
    return 0;
  }

  std::printf("processed %zu queries x %d batch(es) across %zu shards "
              "(%s partition) in %.1f ms\n",
              in->batch.size(), repeat, pool.num_shards(),
              args.Get("partition", "account").c_str(), total_ms);
  std::printf("per-shard latency (ms):\n");
  std::printf("  %5s %8s %8s %8s %8s %8s\n", "shard", "count", "p50", "p90",
              "p99", "max");
  for (const auto& s : pool.Stats()) {
    std::printf("  %5zu %8llu %8.3f %8.3f %8.3f %8.3f\n", s.shard,
                static_cast<unsigned long long>(s.histogram.count),
                s.histogram.p50(), s.histogram.p90(), s.histogram.p99(),
                s.histogram.max);
  }
  obs::HistogramSnapshot pooled = pool.MergedLatency();
  std::printf("pooled: count=%llu p50=%.3f p90=%.3f p99=%.3f max=%.3f\n",
              static_cast<unsigned long long>(pooled.count), pooled.p50(),
              pooled.p90(), pooled.p99(), pooled.max);

  if (!PrintEmbedCacheLine(pool)) {
    std::printf("embed cache: disabled (--embed-cache 0)\n");
  }

  std::printf("pipeline stages (ms):\n");
  std::printf("  %-14s %8s %8s %8s %8s\n", "stage", "count", "p50", "p99",
              "max");
  auto snap = obs::MetricsRegistry::Global().Collect("querc_stage_ms");
  for (const auto& sample : snap.histograms) {
    std::string stage = "?";
    for (const auto& [key, value] : sample.labels) {
      if (key == "stage") stage = value;
    }
    std::printf("  %-14s %8llu %8.3f %8.3f %8.3f\n", stage.c_str(),
                static_cast<unsigned long long>(sample.snapshot.count),
                sample.snapshot.p50(), sample.snapshot.p99(),
                sample.snapshot.max);
  }

  auto lint_snap =
      obs::MetricsRegistry::Global().Collect("querc_lint_hits_total");
  std::printf("lint: %zu diagnostics across shards, %zu offender "
              "templates dropped by the bounded trackers\n",
              pool.lint_diagnostic_count(), pool.lint_templates_dropped());
  std::printf("lint rule hits:\n");
  for (const auto& sample : lint_snap.counters) {
    if (sample.value == 0) continue;
    std::string rule = "?";
    for (const auto& [key, value] : sample.labels) {
      if (key == "rule") rule = value;
    }
    std::printf("  %-28s %llu\n", rule.c_str(),
                static_cast<unsigned long long>(sample.value));
  }
  for (const auto& t : pool.TopOffendingTemplates(3)) {
    std::printf("  offender: %zu diagnostics over %zu instances: %.80s%s\n",
                t.diagnostics, t.instances, t.example_text.c_str(),
                t.example_text.size() > 80 ? "..." : "");
  }

  // Resilience: breaker states plus the fault-handling counters (all also
  // exported via --format prom|json).
  auto counter_total = [](const std::string& name) {
    unsigned long long total = 0;
    for (const auto& sample :
         obs::MetricsRegistry::Global().Collect(name).counters) {
      total += sample.value;
    }
    return total;
  };
  std::printf("resilience:\n");
  std::printf("  breakers:\n");
  for (const auto& [name, state] : pool.BreakerStates()) {
    std::printf("    %-32s %s\n", name.c_str(),
                std::string(core::CircuitBreaker::StateName(state)).c_str());
  }
  std::printf("  shed=%llu retries=%llu retry_budget_exhausted=%llu "
              "deadline_exceeded=%llu sink_errors=%llu fallbacks=%llu "
              "skipped=%llu\n",
              counter_total("querc_shed_total"),
              counter_total("querc_retries_total"),
              counter_total("querc_retry_budget_exhausted_total"),
              counter_total("querc_deadline_exceeded_total"),
              counter_total("querc_sink_errors_total"),
              counter_total("querc_fallback_predictions_total"),
              counter_total("querc_classifier_skipped_total"));
  if (const core::TenantAdmissionController* admission = pool.admission()) {
    // Per-tenant isolation table: the top-N tenants by shed count (from
    // the controller's bounded aggregator) joined with their live
    // in-flight counts and any per-account breaker state.
    std::map<std::string, core::TenantAdmissionStats> rows;
    for (const auto& row : admission->Stats()) rows[row.account] = row;
    auto breaker_states = pool.BreakerStates();
    std::printf("  tenants (top %d by sheds, %zu tracked, %llu state "
                "evictions):\n",
                5, admission->tracked_tenants(),
                (unsigned long long)admission->evicted_tenants());
    std::printf("    %-20s %10s %10s %10s %10s %9s  %s\n", "account",
                "sheds", "quota", "fairness", "global", "in_flight",
                "breakers");
    for (const auto& top : admission->TopSheds(5)) {
      const core::TenantAdmissionStats* row = nullptr;
      auto it = rows.find(top.key);
      if (it != rows.end()) row = &it->second;
      std::string breakers;
      for (const auto& [name, state] : breaker_states) {
        if (name.find(":" + top.key) == std::string::npos) continue;
        if (!breakers.empty()) breakers += " ";
        breakers += std::string(core::CircuitBreaker::StateName(state));
      }
      if (breakers.empty()) breakers = "-";
      std::printf("    %-20s %10llu %10llu %10llu %10llu %9zu  %s\n",
                  top.key.c_str(), (unsigned long long)top.count,
                  (unsigned long long)(row ? row->shed_quota : 0),
                  (unsigned long long)(row ? row->shed_fairness : 0),
                  (unsigned long long)(row ? row->shed_global : 0),
                  row ? row->in_flight : 0, breakers.c_str());
    }
    if (admission->shed_total() == 0) {
      std::printf("    (no sheds; quotas held)\n");
    }
  }
  return 0;
}

/// `querc chaos`: the deterministic fault-injection soak (see
/// querc/chaos.h). Drives a sharded pool through warmup / fault /
/// recovery phases with failpoints armed, prints the machine-readable
/// report, and exits nonzero unless the service degraded gracefully
/// (breakers tripped AND re-closed, shedding engaged, no silent drops) —
/// so CI can gate on it.
/// `querc chaos --noisy-neighbor`: the tenant-isolation drill (see
/// querc/chaos.h). One tenant floods a quota'd pool at a multiple of its
/// sustained rate while its backend fails; exits nonzero unless isolation
/// held (victims never shed, bounded victim p99, only aggressor breakers
/// tripped and re-closed, per-account shed reconciliation).
int CmdChaosNoisyNeighbor(const Args& args) {
  core::NoisyNeighborOptions options;
  options.num_shards = ShardsFlag(args, 2);
  options.num_victims = static_cast<size_t>(args.GetInt("victims", 3));
  options.overload_factor = args.GetDouble("overload-factor", 10.0);
  options.warmup_rounds = static_cast<size_t>(args.GetInt("warmup", 10));
  options.flood_rounds = static_cast<size_t>(args.GetInt("flood", 30));
  options.recovery_rounds =
      static_cast<size_t>(args.GetInt("recovery", 200));
  options.quota_burst = args.GetDouble("quota-burst", 16.0);
  options.quota_rate_per_sec = args.GetDouble("quota-rate", 1000.0);
  options.max_in_flight =
      static_cast<size_t>(args.GetInt("max-in-flight", 16));
  options.breaker_open_ms = args.GetDouble("breaker-open-ms", 25.0);
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 42));

  core::NoisyNeighborReport report = core::RunNoisyNeighborDrill(options);
  std::string json = report.ToJson();
  std::string out = args.Get("out");
  if (out.empty()) {
    std::printf("%s\n", json.c_str());
  } else {
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      return Fail(util::Status::Internal("cannot open --out " + out));
    }
    std::fputs(json.c_str(), f);
    std::fputs("\n", f);
    std::fclose(f);
    std::printf("wrote noisy-neighbor report to %s\n", out.c_str());
  }
  if (!report.ok()) {
    std::fprintf(stderr,
                 "chaos --noisy-neighbor: FAILED (victim_shed=%zu "
                 "aggressor_shed_rate=%.3f overload_fraction=%.3f "
                 "aggressor_breakers=%zu victim_breakers=%zu reclosed=%s "
                 "victim_p99=%.3fms bound=%.3fms reconciled=%s "
                 "silent_drops=%zu)\n",
                 report.victim_shed, report.aggressor_shed_rate,
                 report.overload_fraction, report.aggressor_breakers_tripped,
                 report.victim_breakers_tripped,
                 report.breakers_reclosed ? "true" : "false",
                 report.victim_p99_flood_ms, report.victim_p99_bound_ms,
                 report.sheds_reconciled ? "true" : "false",
                 report.silent_drops);
    return 1;
  }
  std::printf("chaos --noisy-neighbor: OK (aggressor shed %.1f%% >= %.1f%% "
              "floor, victim shed 0, victim p99 %.3f ms <= %.3f ms, "
              "%zu aggressor breakers tripped and re-closed in %zu rounds, "
              "sheds reconciled per account)\n",
              100.0 * report.aggressor_shed_rate,
              100.0 * report.overload_fraction, report.victim_p99_flood_ms,
              report.victim_p99_bound_ms, report.aggressor_breakers_tripped,
              report.recovery_rounds_used);
  return 0;
}

int CmdChaos(const Args& args) {
  if (args.GetBool("noisy-neighbor")) return CmdChaosNoisyNeighbor(args);
  core::ChaosOptions options;
  options.num_shards = ShardsFlag(args, 2);
  options.warmup_queries = static_cast<size_t>(args.GetInt("warmup", 100));
  options.fault_queries = static_cast<size_t>(args.GetInt("faults", 300));
  options.recovery_queries =
      static_cast<size_t>(args.GetInt("recovery", 400));
  options.sink_failure_rate = args.GetDouble("sink-failure-rate", 0.2);
  options.classifier_outage = !args.GetBool("no-classifier-outage");
  options.max_in_flight =
      static_cast<size_t>(args.GetInt("max-in-flight", 8));
  options.breaker_open_ms = args.GetDouble("breaker-open-ms", 25.0);
  options.deadline_ms = args.GetDouble("deadline-ms", 0.0);
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  options.flightrec = args.GetBool("flightrec");

  core::ChaosReport report = core::RunChaosSoak(options);
  std::string json = report.ToJson();
  std::string out = args.Get("out");
  if (out.empty()) {
    std::printf("%s\n", json.c_str());
  } else {
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      return Fail(util::Status::Internal("cannot open --out " + out));
    }
    std::fputs(json.c_str(), f);
    std::fputs("\n", f);
    std::fclose(f);
    std::printf("wrote chaos report to %s\n", out.c_str());
  }
  if (report.flightrec_enabled) {
    // Dump-on-anomaly evidence: the journal attribution summary plus the
    // slowest reassembled traces the soak produced.
    std::printf("flightrec: sink_failpoints=%llu/%llu "
                "classifier_failpoints=%llu/%llu sheds=%llu/%zu "
                "breaker_transitions=%llu %s\n",
                (unsigned long long)report.journal_sink_failpoints,
                (unsigned long long)report.failpoint_hits_sink,
                (unsigned long long)report.journal_classifier_failpoints,
                (unsigned long long)report.failpoint_hits_classifier,
                (unsigned long long)report.journal_sheds, report.shed,
                (unsigned long long)report.journal_breaker_transitions,
                report.flightrec_ok ? "reconciled" : "MISMATCH");
    for (const std::string& line : report.slow_traces) {
      std::printf("  %s\n", line.c_str());
    }
  }
  if (!report.ok()) {
    std::fprintf(stderr,
                 "chaos: FAILED (tripped=%zu reclosed=%s shed=%zu "
                 "silent_drops=%zu flightrec_ok=%s)\n",
                 report.breakers_tripped,
                 report.breakers_reclosed ? "true" : "false", report.shed,
                 report.silent_drops, report.flightrec_ok ? "true" : "false");
    return 1;
  }
  std::printf("chaos: OK (recovery %.1f ms, shed rate %.1f%%, p99 under "
              "fault %.3f ms)\n",
              report.recovery_ms, 100.0 * report.shed_rate,
              report.p99_fault_ms);
  return 0;
}

/// `querc trace`: drives a synthetic workload through a sharded pool with
/// the flight recorder reassembling one trace per query, then dumps the N
/// slowest — one-line text to stdout and Chrome trace-event / Perfetto
/// JSON to --out (loadable at ui.perfetto.dev or chrome://tracing).
int CmdTrace(const Args& args) {
  auto in = GenerateLabelInputs(args, 3);
  if (!in.ok()) return Fail(in.status());
  const workload::Workload& wl = in->history;
  auto classifier = std::make_shared<core::Classifier>(
      "user", in->embedder,
      std::make_unique<ml::RandomForestClassifier>(
          ml::RandomForestClassifier::Options{}));
  util::Status status = classifier->Train(wl, workload::UserOf);
  if (!status.ok()) return Fail(status);

  core::QWorkerPool::Options options;
  options.application = "trace";
  options.num_shards = ShardsFlag(args, 8);
  options.threads = ThreadsFlag(args);
  options.worker.deadline_ms = args.GetDouble("deadline-ms", 0.0);
  options.worker.embed_cache_capacity =
      static_cast<size_t>(args.GetInt("embed-cache", 4096));
  core::QWorkerPool pool(options);
  pool.Deploy(classifier);
  pool.set_database_sink([](const workload::LabeledQuery&) {});
  pool.set_training_sink([](const core::ProcessedQuery&) {});

  size_t slowest = static_cast<size_t>(std::max(1, args.GetInt("slowest", 5)));
  obs::TraceCollector::Options copts;
  copts.reservoir_capacity = slowest;
  obs::TraceCollector collector(copts);
  {
    // Anything earlier work in this process journaled is not ours.
    std::vector<obs::FlightEvent> discard;
    obs::FlightRecorder::Global().Drain(&discard);
  }
  // One Process call per query = one root trace per query, so "the N
  // slowest traces" literally means the N slowest queries.
  for (const auto& q : wl) {
    pool.Process(q);
    collector.Poll();
  }
  collector.Poll();

  std::vector<obs::FlightTrace> slow = collector.Slowest(slowest);
  std::printf("traced %zu queries, %llu traces reassembled; %zu slowest:\n",
              wl.size(), (unsigned long long)collector.completed_traces(),
              slow.size());
  size_t events = 0;
  for (const obs::FlightTrace& t : slow) {
    events += t.events.size();
    std::printf("  %s\n", obs::FlightTraceLine(t).c_str());
  }
  obs::FlightRecorder::Stats stats = obs::FlightRecorder::Global().stats();
  std::printf("journal: recorded=%llu drained=%llu dropped=%llu lanes=%zu\n",
              (unsigned long long)stats.recorded,
              (unsigned long long)stats.drained,
              (unsigned long long)stats.dropped,
              obs::FlightRecorder::Global().num_lanes());

  std::string out = args.Get("out", "trace.json");
  std::string json = obs::ExportChromeTrace(slow);
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    return Fail(util::Status::Internal("cannot open --out " + out));
  }
  std::fputs(json.c_str(), f);
  std::fputs("\n", f);
  std::fclose(f);
  std::printf("wrote Perfetto trace (%zu events) to %s\n", events,
              out.c_str());
  return 0;
}

bool ParseDialect(const std::string& name, sql::Dialect* out) {
  if (name == "generic") {
    *out = sql::Dialect::kGeneric;
  } else if (name == "sqlserver") {
    *out = sql::Dialect::kSqlServer;
  } else if (name == "snowflake") {
    *out = sql::Dialect::kSnowflake;
  } else {
    return false;
  }
  return true;
}

/// Splits raw SQL input on top-level `;` statement separators using the
/// lenient lexer (so semicolons inside string literals and comments do not
/// split). Blank statements are dropped.
std::vector<std::string> SplitStatements(const std::string& input,
                                         sql::Dialect dialect) {
  sql::LexOptions lex;
  lex.dialect = dialect;
  sql::TokenList tokens = sql::LexLenient(input, lex);
  std::vector<std::string> statements;
  size_t start = 0;
  auto flush = [&](size_t end) {
    std::string_view stmt = util::Trim(
        std::string_view(input).substr(start, end - start));
    if (!stmt.empty()) statements.emplace_back(stmt);
  };
  for (const sql::Token& t : tokens) {
    if (t.IsPunct(';')) {
      flush(t.offset);
      start = t.offset + 1;
    }
  }
  flush(input.size());
  return statements;
}

/// `querc lint`: static analysis over a workload file or raw SQL on stdin.
/// Exit code 1 when any diagnostic reaches the --fail-on severity floor
/// (default error), so it slots into CI pipelines; 2 on usage errors.
int CmdLint(const Args& args) {
  sql::Dialect dialect = sql::Dialect::kGeneric;
  if (!ParseDialect(args.Get("dialect", "generic"), &dialect)) {
    return Fail(util::Status::InvalidArgument("unknown --dialect " +
                                              args.Get("dialect")));
  }

  std::vector<std::string> texts;
  if (args.GetBool("stdin")) {
    std::string input;
    char buffer[4096];
    size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), stdin)) > 0) {
      input.append(buffer, n);
    }
    texts = SplitStatements(input, dialect);
  } else if (!args.Get("workload").empty()) {
    auto wl = LoadWorkload(args, "workload");
    if (!wl.ok()) return Fail(wl.status());
    for (const auto& q : *wl) texts.push_back(q.text);
  } else {
    return Fail(util::Status::InvalidArgument(
        "missing input: pass --workload w.csv or --stdin"));
  }

  sql::lint::LintOptions lint_options;
  lint_options.dialect = dialect;
  lint_options.hot_template_threshold =
      static_cast<size_t>(args.GetInt("hot-threshold", 8));
  lint_options.top_templates = static_cast<size_t>(args.GetInt("top", 5));

  std::string catalog_kind = args.Get("catalog", "tpch");
  if (catalog_kind != "tpch" && catalog_kind != "none") {
    return Fail(
        util::Status::InvalidArgument("unknown --catalog " + catalog_kind));
  }
  engine::Catalog catalog = engine::TpchCatalog();
  engine::CatalogSchemaProvider schema(&catalog);

  sql::lint::LintReport report;
  std::string advisor_note;
  if (args.GetBool("advise")) {
    engine::CostModel model(&catalog);
    engine::AdvisorLintOptions advisor_options;
    advisor_options.lint = lint_options;
    advisor_options.advisor.budget_minutes = args.GetDouble("budget", 10.0);
    auto result = engine::LintWorkloadWithAdvisor(texts, model,
                                                  advisor_options);
    report = std::move(result.report);
    advisor_note = "advisor recommendation: " +
                   engine::ConfigToString(result.advisor.config) + "\n";
  } else {
    sql::lint::LintEngine engine(
        lint_options, catalog_kind == "none" ? nullptr : &schema);
    report = engine.LintTexts(texts);
  }

  // Mirror per-rule hits into the global registry so `querc stats` and the
  // Prometheus/JSON exporters see them alongside the QWorker counters.
  for (const auto& [rule, hits] : report.rule_hits) {
    obs::MetricsRegistry::Global()
        .GetCounter("querc_lint_hits_total", {{"rule", rule}},
                    "Lint diagnostics emitted per rule, all workers")
        .Increment(hits);
  }

  std::string format = args.Get("format", "text");
  std::string rendered;
  if (format == "text") {
    rendered = advisor_note + sql::lint::FormatText(report);
  } else if (format == "json") {
    rendered = sql::lint::FormatJson(report);
  } else if (format == "sarif") {
    sql::lint::RuleRegistry registry = sql::lint::RuleRegistry::Builtin();
    rendered = sql::lint::FormatSarif(report, registry);
  } else {
    return Fail(util::Status::InvalidArgument("unknown --format " + format));
  }

  std::string out = args.Get("out");
  if (out.empty()) {
    std::fputs(rendered.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      return Fail(util::Status::Internal("cannot open --out " + out));
    }
    std::fputs(rendered.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s lint report to %s\n", format.c_str(), out.c_str());
  }

  std::string fail_on = args.Get("fail-on", "error");
  if (fail_on == "never") return 0;
  sql::lint::Severity floor = sql::lint::Severity::kError;
  if (!sql::lint::ParseSeverity(fail_on, &floor)) {
    return Fail(
        util::Status::InvalidArgument("unknown --fail-on " + fail_on));
  }
  return report.CountAtLeast(floor) > 0 ? 1 : 0;
}

int CmdExplain(const Args& args) {
  auto wl = LoadWorkload(args, "workload");
  if (!wl.ok()) return Fail(wl.status());
  engine::Catalog catalog = engine::TpchCatalog();
  engine::CostModel model(&catalog);
  engine::IndexConfig config;
  // --index table:col1[,col2] may repeat via comma-separated list in one
  // flag: "--indexes lineitem:l_shipdate;orders:o_orderdate".
  std::string spec = args.Get("indexes");
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    std::string one = spec.substr(pos, end - pos);
    pos = end + 1;
    size_t colon = one.find(':');
    if (colon == std::string::npos) continue;
    engine::Index index;
    index.table = one.substr(0, colon);
    for (const std::string& col :
         util::Split(one.substr(colon + 1), ',')) {
      if (!col.empty()) index.key_columns.push_back(col);
    }
    config.push_back(std::move(index));
  }
  size_t limit = static_cast<size_t>(args.GetInt("limit", 5));
  for (size_t i = 0; i < wl->size() && i < limit; ++i) {
    std::printf("%s\n",
                engine::ExplainQuery(model, (*wl)[i].text, config).c_str());
  }
  return 0;
}

int CmdDrift(const Args& args) {
  auto embedder = embed::LoadEmbedderFile(args.Get("model"));
  if (!embedder.ok()) return Fail(embedder.status());
  auto reference = LoadWorkload(args, "reference");
  if (!reference.ok()) return Fail(reference.status());
  auto recent = LoadWorkload(args, "recent");
  if (!recent.ok()) return Fail(recent.status());

  std::shared_ptr<const embed::Embedder> shared(std::move(*embedder));
  core::DriftDetector detector(shared, {});
  util::Status status = detector.SetReference(*reference);
  if (!status.ok()) return Fail(status);
  auto report = detector.Check(*recent);
  std::printf("reference=%zu recent=%zu\n", report.reference_size,
              report.recent_size);
  std::printf("centroid_shift=%.3f novelty=%.3f -> retrain %s\n",
              report.centroid_shift, report.novelty,
              report.retrain_recommended ? "RECOMMENDED" : "not needed");
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: querc <command> [flags]\n"
      "  generate   --kind tpch|snowflake|table2 --out w.csv [--seed N]\n"
      "             [--account-skew F]   (Zipf volume skew, rank 0 heaviest)\n"
      "  train      --embedder doc2vec|dbow|lstm --workload w.csv --model m.bin\n"
      "  info       --model m.bin\n"
      "  summarize  --model m.bin --workload w.csv [--k N] [--out s.csv]\n"
      "  tune       --workload w.csv [--budget MIN] [--merge] [--storage MB]\n"
      "  audit      --model m.bin --history h.csv --batch b.csv\n"
      "  label      --model m.bin --history h.csv --batch b.csv --task t\n"
      "  pool       --model m.bin --history h.csv --batch b.csv [--task t]\n"
      "             [--shards N] [--threads N] [--partition account|user|rr]\n"
      "             (shards/threads default to the machine's cpu count)\n"
      "             [--embed-cache N]   (cache entries per shard; 0 disables)\n"
      "             [--max-in-flight N] [--quota BURST[:RATE]]\n"
      "             [--tenant-weight acct=W,...]   (tenant admission)\n"
      "  stats      [--model m.bin --history h.csv --batch b.csv] [--task t]\n"
      "             [--shards N] [--threads N] [--partition account|user|rr]\n"
      "             [--repeat N]\n"
      "             [--format text|prom|json] [--out f] [--report-ms N]\n"
      "             [--embed-cache N]   (cache entries per shard; 0 disables)\n"
      "             [--quota BURST[:RATE]] [--tenant-weight acct=W,...]\n"
      "  chaos      [--shards N] [--warmup N] [--faults N] [--recovery N]\n"
      "             [--sink-failure-rate F] [--no-classifier-outage]\n"
      "             [--max-in-flight N] [--breaker-open-ms F] [--out f]\n"
      "             [--flightrec]   (journal attribution + slowest traces)\n"
      "             [--noisy-neighbor]   (tenant-isolation drill; also\n"
      "             [--victims N] [--overload-factor F] [--flood N]\n"
      "             [--quota-burst F] [--quota-rate F])\n"
      "  trace      [--queries N] [--shards N] [--threads N] [--slowest N]\n"
      "             [--seed N]\n"
      "             [--out trace.json]   (Perfetto JSON for slowest queries)\n"
      "  explain    --workload w.csv [--indexes t:c1,c2;t2:c] [--limit N]\n"
      "  drift      --model m.bin --reference r.csv --recent n.csv\n"
      "  lint       --workload w.csv | --stdin [--dialect d]\n"
      "             [--format text|json|sarif] [--out f] [--catalog tpch|none]\n"
      "             [--advise] [--budget MIN] [--fail-on error|warning|info|never]\n"
      "             [--hot-threshold N] [--top N]\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  Args args(argc, argv);
  if (command == "generate") return CmdGenerate(args);
  if (command == "train") return CmdTrain(args);
  if (command == "info") return CmdInfo(args);
  if (command == "summarize") return CmdSummarize(args);
  if (command == "tune") return CmdTune(args);
  if (command == "audit") return CmdAudit(args);
  if (command == "label") return CmdLabel(args);
  if (command == "pool") return CmdPool(args);
  if (command == "stats") return CmdStats(args);
  if (command == "chaos") return CmdChaos(args);
  if (command == "trace") return CmdTrace(args);
  if (command == "explain") return CmdExplain(args);
  if (command == "drift") return CmdDrift(args);
  if (command == "lint") return CmdLint(args);
  return Usage();
}

}  // namespace
}  // namespace querc::cli

int main(int argc, char** argv) { return querc::cli::Main(argc, argv); }
