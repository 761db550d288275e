// Tenant-isolation benchmark: one aggressor account floods a sharded
// QWorkerPool (slow backend, oversized batches) at a FIXED load while a
// victim account sends steady inline traffic; the victim's successful-
// only p99 and shed count are measured twice — isolation OFF (global
// slots only) and isolation ON (per-account token quota + weighted-fair
// admission + per-tenant sink breakers) — and exported to
// BENCH_tenant.json.
//
// With --smoke the run is truncated for CI and the process fails unless
// the isolation CONTRACT holds: with isolation on, the victim is never
// shed, the aggressor is shed at a positive rate, and every submitted
// query is accounted for (processed + shed, no silent drops). The perf
// gate — isolated victim p99 no worse than the unisolated p99, and the
// unisolated run actually shedding the victim — runs only when
// --no-perf-gate is absent: sanitizer builds distort timings, so
// tools/verify_matrix.sh passes --no-perf-gate for asan/tsan/ubsan
// (contract-only under sanitizers), matching bench_aggregator.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "embed/feature_embedder.h"
#include "ml/knn.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "querc/classifier.h"
#include "querc/qworker_pool.h"
#include "util/stopwatch.h"
#include "workload/workload.h"

namespace querc::bench {
namespace {

using querc::core::QWorkerPool;

workload::LabeledQuery MakeQuery(const std::string& account) {
  workload::LabeledQuery q;
  q.text = "SELECT a, b FROM t WHERE x = 1";
  q.user = "u1";
  q.account = account;
  return q;
}

std::shared_ptr<querc::core::Classifier> TrainedClassifier() {
  auto embedder = std::make_shared<embed::FeatureEmbedder>(
      embed::FeatureEmbedder::Options{});
  auto classifier = std::make_shared<querc::core::Classifier>(
      "user", embedder,
      std::make_unique<ml::KnnClassifier>(ml::KnnClassifier::Options{.k = 1}));
  workload::Workload history;
  for (int i = 0; i < 8; ++i) {
    workload::LabeledQuery q = MakeQuery("acct");
    q.user = "alice";
    history.Add(q);
    q.text = "SELECT c FROM u, v WHERE u.k = v.k";
    q.user = "bob";
    history.Add(q);
  }
  util::Status status = classifier->Train(history, workload::UserOf);
  if (!status.ok()) std::abort();  // tiny fixed corpus; cannot fail
  return classifier;
}

struct RunResult {
  double victim_p99_ms = 0.0;     // successful (non-shed) victims only
  size_t victim_samples = 0;      // successful victim queries measured
  size_t victim_shed = 0;
  size_t aggressor_submitted = 0;
  size_t aggressor_shed = 0;
  size_t silent_drops = 0;

  double aggressor_shed_rate() const {
    return aggressor_submitted == 0
               ? 0.0
               : static_cast<double>(aggressor_shed) /
                     static_cast<double>(aggressor_submitted);
  }
};

double Percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(samples.size()));
  if (idx >= samples.size()) idx = samples.size() - 1;
  return samples[idx];
}

/// One configuration at a fixed aggressor load: `flood_threads` threads
/// each loop ProcessBatch(32 aggressor queries) against a ~200us-slow
/// aggressor backend while the main thread measures `victim_queries`
/// inline victim calls.
RunResult RunScenario(bool isolation, size_t victim_queries) {
  QWorkerPool::Options options;
  options.application = isolation ? "fair_on" : "fair_off";
  options.num_shards = 2;
  options.partition = QWorkerPool::Partition::kRoundRobin;
  options.max_in_flight = 16;
  if (isolation) {
    options.enable_tenant_admission = true;
    // Victims effectively unmetered; the aggressor gets a tight bucket,
    // so the admission stage (not the global slots) absorbs its flood.
    options.admission.default_quota.burst = 0.0;
    options.admission.tenants["aggressor"] = {/*burst=*/4.0,
                                              /*rate_per_sec=*/2000.0,
                                              /*weight=*/1.0};
    options.worker.per_tenant_sink_breakers = true;
  }
  options.worker.enable_lint = false;
  QWorkerPool pool(options);
  pool.Deploy(TrainedClassifier());
  pool.set_database_sink([](const workload::LabeledQuery& q) {
    if (q.account == "aggressor") {
      // The noisy backend: each aggressor query holds its slot ~200us.
      util::Stopwatch spin;
      while (spin.ElapsedMillis() < 0.2) {
      }
    }
  });

  const size_t kFloodThreads = 2;
  const size_t kFloodBatch = 32;
  std::atomic<bool> stop{false};
  std::atomic<size_t> started{0};
  std::atomic<size_t> aggressor_submitted{0};
  std::atomic<size_t> aggressor_shed{0};
  std::atomic<size_t> aggressor_returned{0};
  std::vector<std::thread> flood;
  flood.reserve(kFloodThreads);
  for (size_t t = 0; t < kFloodThreads; ++t) {
    flood.emplace_back([&] {
      workload::Workload batch;
      for (size_t i = 0; i < kFloodBatch; ++i) {
        batch.Add(MakeQuery("aggressor"));
      }
      bool first = true;
      while (!stop.load(std::memory_order_relaxed)) {
        aggressor_submitted.fetch_add(batch.size(),
                                      std::memory_order_relaxed);
        for (const auto& pq : pool.ProcessBatch(batch)) {
          aggressor_returned.fetch_add(1, std::memory_order_relaxed);
          if (pq.shed) aggressor_shed.fetch_add(1, std::memory_order_relaxed);
        }
        if (first) {
          // Startup barrier: the victim measurement must not begin (and
          // certainly not finish — it is fast) before the flood is live.
          started.fetch_add(1, std::memory_order_release);
          first = false;
        }
      }
    });
  }
  while (started.load(std::memory_order_acquire) < kFloodThreads) {
    std::this_thread::yield();
  }

  RunResult result;
  std::vector<double> latencies;
  latencies.reserve(victim_queries);
  workload::LabeledQuery victim_query = MakeQuery("victim");
  for (size_t i = 0; i < victim_queries; ++i) {
    {
      // Small inter-arrival gap so the victim samples span many flood
      // batch cycles instead of racing through one quiet window.
      util::Stopwatch gap;
      while (gap.ElapsedMillis() < 0.02) {
      }
    }
    util::Stopwatch sw;
    auto pq = pool.Process(victim_query);
    double ms = sw.ElapsedMillis();
    if (pq.shed) {
      ++result.victim_shed;
    } else {
      latencies.push_back(ms);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : flood) th.join();

  result.victim_p99_ms = Percentile(latencies, 0.99);
  result.victim_samples = latencies.size();
  result.aggressor_submitted = aggressor_submitted.load();
  result.aggressor_shed = aggressor_shed.load();
  result.silent_drops = aggressor_submitted.load() - aggressor_returned.load();
  return result;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  bool perf_gate = true;
  const char* out_path = "BENCH_tenant.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--no-perf-gate") == 0) {
      perf_gate = false;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_tenant_fairness [--smoke] [--no-perf-gate] "
                   "[--out FILE]\n");
      return 2;
    }
  }

  const size_t victim_queries = smoke ? 400 : 3000;
  std::printf("=== tenant fairness: 2-thread aggressor flood (32-query "
              "batches, ~200us backend) vs %zu victim queries ===\n",
              victim_queries);

  RunResult off = RunScenario(/*isolation=*/false, victim_queries);
  RunResult on = RunScenario(/*isolation=*/true, victim_queries);
  std::printf("  isolation OFF: victim p99 %.3f ms over %zu ok, %zu shed; "
              "aggressor shed %.1f%%\n",
              off.victim_p99_ms, off.victim_samples, off.victim_shed,
              100.0 * off.aggressor_shed_rate());
  std::printf("  isolation ON:  victim p99 %.3f ms over %zu ok, %zu shed; "
              "aggressor shed %.1f%%\n",
              on.victim_p99_ms, on.victim_samples, on.victim_shed,
              100.0 * on.aggressor_shed_rate());

  auto& registry = obs::MetricsRegistry::Global();
  auto set = [&registry](const std::string& name, const obs::Labels& labels,
                         const std::string& help, double value) {
    registry.GetGauge(name, labels, help).Set(value);
  };
  set("bench_tenant_victim_p99_ms", {{"isolation", "off"}},
      "Victim successful-only p99 under a fixed aggressor flood, ms",
      off.victim_p99_ms);
  set("bench_tenant_victim_p99_ms", {{"isolation", "on"}}, "",
      on.victim_p99_ms);
  set("bench_tenant_victim_shed", {{"isolation", "off"}},
      "Victim queries shed during the flood", off.victim_shed);
  set("bench_tenant_victim_shed", {{"isolation", "on"}}, "", on.victim_shed);
  set("bench_tenant_aggressor_shed_rate", {{"isolation", "off"}},
      "Fraction of the aggressor flood shed", off.aggressor_shed_rate());
  set("bench_tenant_aggressor_shed_rate", {{"isolation", "on"}}, "",
      on.aggressor_shed_rate());

  // Contract (every config, sanitizers included): with isolation on the
  // victim is untouched, the aggressor pays, and nothing is dropped.
  bool contract_ok = on.victim_shed == 0 && on.aggressor_shed_rate() > 0.0 &&
                     on.silent_drops == 0 && off.silent_drops == 0 &&
                     on.victim_samples > 0;
  set("bench_tenant_contract_ok", {},
      "1 when the isolation contract held (victim unshed, aggressor shed, "
      "no silent drops)",
      contract_ok ? 1.0 : 0.0);

  std::string json = obs::ExportJson(registry, "bench_");
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path);

  if (!contract_ok) {
    std::fprintf(stderr,
                 "FAIL: isolation contract (victim_shed=%zu aggressor_"
                 "shed_rate=%.3f silent_drops=%zu+%zu victim_samples=%zu)\n",
                 on.victim_shed, on.aggressor_shed_rate(), on.silent_drops,
                 off.silent_drops, on.victim_samples);
    return 1;
  }
  if (smoke && perf_gate) {
    // Plain-config perf gate: isolation must actually help the victim —
    // the unisolated flood sheds it while the isolated run keeps its p99
    // no worse than the unisolated successful tail.
    if (off.victim_shed == 0) {
      std::fprintf(stderr,
                   "FAIL: unisolated flood never shed the victim — the "
                   "aggressor load is too weak to measure anything\n");
      return 1;
    }
    if (on.victim_p99_ms > off.victim_p99_ms * 1.5 + 0.5) {
      std::fprintf(stderr,
                   "FAIL: isolated victim p99 %.3f ms much worse than "
                   "unisolated %.3f ms\n",
                   on.victim_p99_ms, off.victim_p99_ms);
      return 1;
    }
  }
  if (smoke) std::printf("smoke OK\n");
  return 0;
}

}  // namespace
}  // namespace querc::bench

int main(int argc, char** argv) { return querc::bench::Main(argc, argv); }
