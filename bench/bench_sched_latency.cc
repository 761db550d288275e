// Scheduling-latency benchmark for the laned ThreadPool (DESIGN.md §17):
// an open-loop interactive probe stream measures submit→start latency on
// a small pool while a feeder keeps the batch lane flooded with sleepy
// tasks. Three phases: unloaded (no flood), lanes ON (interactive probes
// vs batch flood — the scheduler's whole point), lanes OFF baseline
// (probes ride the SAME lane as the flood, i.e. the old single-FIFO
// behavior) — exported to BENCH_sched.json.
//
// With --smoke the run is truncated for CI and the process fails unless
// the scheduling CONTRACT holds: lanes-on interactive p99 under the
// flood stays within max(10x unloaded p99, 20 ms), the lanes-off
// baseline violates that same bound (the flood really is heavy enough to
// matter), no probe is lost, and the flood makes progress (batch is
// starvation-bounded, not starved out). The flood tasks *sleep* rather
// than spin, so queueing delay dominates and the contract is robust
// under sanitizer slowdowns; the stricter perf gate — lanes-off p99 at
// least 2x the lanes-on p99 — runs only when --no-perf-gate is absent,
// matching bench_tenant_fairness (tools/verify_matrix.sh passes
// --no-perf-gate for sanitizer configs).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "util/lane.h"
#include "util/thread_pool.h"
#include "util/topology.h"

namespace querc::bench {
namespace {

using querc::util::Lane;
using querc::util::ThreadPool;

// Two workers keep the pool easy to saturate; the flood depth then sets
// the FIFO backlog a same-lane probe must wait out (~depth/2 ms).
constexpr size_t kPoolThreads = 2;
constexpr double kFloodTaskMs = 1.0;

double Percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(samples.size()));
  if (idx >= samples.size()) idx = samples.size() - 1;
  return samples[idx];
}

struct PhaseResult {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  size_t samples = 0;        // probes that actually ran
  size_t flood_started = 0;  // flood tasks that ran during the phase
};

/// Runs one probe phase: `probes` tasks submitted on `probe_lane` at
/// `spacing_ms` intervals, each recording its own submit→start latency.
/// With `flood_depth` > 0 a feeder keeps that many sleep(1ms) tasks
/// outstanding on the batch lane for the whole phase.
PhaseResult RunPhase(ThreadPool& pool, Lane probe_lane, size_t probes,
                     double spacing_ms, size_t flood_depth) {
  std::atomic<bool> stop{false};
  std::atomic<size_t> in_flight{0};
  std::atomic<size_t> flood_started{0};
  std::thread feeder;
  if (flood_depth > 0) {
    feeder = util::SpawnThread("sched-feeder", [&] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (in_flight.load(std::memory_order_relaxed) >= flood_depth) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;
        }
        in_flight.fetch_add(1, std::memory_order_relaxed);
        pool.Submit(Lane::kBatch, [&] {
          flood_started.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::microseconds(
              static_cast<int64_t>(kFloodTaskMs * 1000.0)));
          in_flight.fetch_sub(1, std::memory_order_relaxed);
        });
      }
    });
    // Let the flood build to full depth before probing starts.
    while (in_flight.load(std::memory_order_relaxed) < flood_depth) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  // Preallocated per-probe slots: each probe writes only its own index,
  // and `done` (acq_rel) publishes the writes to the main thread.
  std::vector<double> latency_ms(probes, -1.0);
  std::atomic<size_t> done{0};
  for (size_t i = 0; i < probes; ++i) {
    auto submitted = std::chrono::steady_clock::now();
    pool.Submit(probe_lane, [&latency_ms, &done, i, submitted] {
      latency_ms[i] = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - submitted)
                          .count();
      done.fetch_add(1, std::memory_order_acq_rel);
    });
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<int64_t>(spacing_ms * 1000.0)));
  }
  while (done.load(std::memory_order_acquire) < probes) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  PhaseResult result;
  result.flood_started = flood_started.load(std::memory_order_relaxed);
  if (flood_depth > 0) {
    stop.store(true, std::memory_order_relaxed);
    feeder.join();
    pool.WaitIdle();  // drain the residual flood before the next phase
  }
  std::vector<double> samples;
  samples.reserve(probes);
  for (double ms : latency_ms) {
    if (ms >= 0.0) samples.push_back(ms);
  }
  result.samples = samples.size();
  result.p50_ms = Percentile(samples, 0.50);
  result.p99_ms = Percentile(samples, 0.99);
  return result;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  bool perf_gate = true;
  const char* out_path = "BENCH_sched.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--no-perf-gate") == 0) {
      perf_gate = false;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_sched_latency [--smoke] [--no-perf-gate] "
                   "[--out FILE]\n");
      return 2;
    }
  }

  ThreadPool::Options pool_options;
  pool_options.num_threads = kPoolThreads;
  ThreadPool pool(pool_options);

  const size_t flood_depth = smoke ? 128 : 256;
  const size_t on_probes = smoke ? 150 : 400;
  // Same-lane probes each wait out the whole FIFO backlog, so fewer of
  // them keep the phase (and CI) bounded.
  const size_t off_probes = smoke ? 40 : 80;
  const double spacing_ms = 2.0;

  std::printf("=== sched latency: %zu-thread pool, batch flood depth %zu "
              "(%.1f ms sleep tasks), %zu/%zu probes at %.1f ms spacing "
              "===\n",
              pool.num_threads(), flood_depth, kFloodTaskMs, on_probes,
              off_probes, spacing_ms);

  PhaseResult unloaded =
      RunPhase(pool, Lane::kInteractive, on_probes, spacing_ms, 0);
  PhaseResult lanes_on =
      RunPhase(pool, Lane::kInteractive, on_probes, spacing_ms, flood_depth);
  PhaseResult lanes_off =
      RunPhase(pool, Lane::kBatch, off_probes, spacing_ms, flood_depth);

  const double bound_ms = std::max(10.0 * unloaded.p99_ms, 20.0);
  std::printf("  unloaded:  p50 %.3f ms, p99 %.3f ms (%zu probes)\n",
              unloaded.p50_ms, unloaded.p99_ms, unloaded.samples);
  std::printf("  lanes ON:  p50 %.3f ms, p99 %.3f ms (%zu probes, %zu "
              "flood tasks ran)\n",
              lanes_on.p50_ms, lanes_on.p99_ms, lanes_on.samples,
              lanes_on.flood_started);
  std::printf("  lanes OFF: p50 %.3f ms, p99 %.3f ms (%zu probes, %zu "
              "flood tasks ran)\n",
              lanes_off.p50_ms, lanes_off.p99_ms, lanes_off.samples,
              lanes_off.flood_started);
  std::printf("  contract bound: %.3f ms\n", bound_ms);

  if (!smoke) {
    // Latency-vs-depth curves for BENCH_sched.json: how the interactive
    // tail holds (lanes on) or collapses (lanes off) as the batch
    // backlog deepens.
    for (size_t depth : {size_t{32}, size_t{96}, size_t{192}}) {
      PhaseResult on = RunPhase(pool, Lane::kInteractive, 120, spacing_ms,
                                depth);
      PhaseResult off = RunPhase(pool, Lane::kBatch, 30, spacing_ms, depth);
      std::printf("  depth %3zu: interactive p99 %.3f ms | same-lane p99 "
                  "%.3f ms\n",
                  depth, on.p99_ms, off.p99_ms);
      obs::Labels on_labels = {{"depth", std::to_string(depth)},
                               {"lanes", "on"}};
      obs::Labels off_labels = {{"depth", std::to_string(depth)},
                                {"lanes", "off"}};
      auto& registry = obs::MetricsRegistry::Global();
      registry
          .GetGauge("bench_sched_curve_p99_ms", on_labels,
                    "Probe p99 vs batch-flood depth, lanes on/off")
          .Set(on.p99_ms);
      registry.GetGauge("bench_sched_curve_p99_ms", off_labels, "")
          .Set(off.p99_ms);
    }
  }

  auto& registry = obs::MetricsRegistry::Global();
  auto set = [&registry](const std::string& name, const obs::Labels& labels,
                         const std::string& help, double value) {
    registry.GetGauge(name, labels, help).Set(value);
  };
  set("bench_sched_p99_ms", {{"phase", "unloaded"}},
      "Probe submit-to-start p99 per phase, ms", unloaded.p99_ms);
  set("bench_sched_p99_ms", {{"phase", "loaded_lanes_on"}}, "",
      lanes_on.p99_ms);
  set("bench_sched_p99_ms", {{"phase", "loaded_lanes_off"}}, "",
      lanes_off.p99_ms);
  set("bench_sched_bound_ms", {},
      "Contract bound: max(10x unloaded p99, 20 ms)", bound_ms);
  set("bench_sched_flood_tasks", {},
      "Batch flood tasks completed while interactive probes ran",
      static_cast<double>(lanes_on.flood_started));

  // Contract (every config, sanitizers included): the lanes keep the
  // interactive tail bounded, the same flood breaks the same-lane
  // baseline, nothing is lost, and the batch lane still made progress.
  bool contract_ok =
      unloaded.samples == on_probes && lanes_on.samples == on_probes &&
      lanes_off.samples == off_probes && lanes_on.p99_ms <= bound_ms &&
      lanes_off.p99_ms > bound_ms && lanes_on.flood_started > 0;
  set("bench_sched_contract_ok", {},
      "1 when the lane-scheduling contract held", contract_ok ? 1.0 : 0.0);

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
                 "FAIL: scheduling contract (lanes_on p99 %.3f ms vs bound "
                 "%.3f ms, lanes_off p99 %.3f ms, probes %zu/%zu/%zu, "
                 "flood %zu)\n",
                 lanes_on.p99_ms, bound_ms, lanes_off.p99_ms,
                 unloaded.samples, lanes_on.samples, lanes_off.samples,
                 lanes_on.flood_started);
    return 1;
  }
  if (perf_gate) {
    // Plain-config perf gate: the lanes must buy a real multiple, not
    // just squeak under the bound.
    if (lanes_off.p99_ms < 2.0 * lanes_on.p99_ms) {
      std::fprintf(stderr,
                   "FAIL: lanes-off p99 %.3f ms not at least 2x lanes-on "
                   "p99 %.3f ms\n",
                   lanes_off.p99_ms, lanes_on.p99_ms);
      return 1;
    }
  }
  if (smoke) std::printf("smoke OK\n");
  return 0;
}

}  // namespace
}  // namespace querc::bench

int main(int argc, char** argv) { return querc::bench::Main(argc, argv); }
