// Measures obs::FlightRecorder — the always-on lock-free event journal
// behind per-query traces — and proves its two contracts: the record path
// costs tens of nanoseconds (one 64-byte store into a thread-local SPSC
// ring), and turning the recorder on costs the QWorker pipeline at most a
// few percent on bench_qworker_throughput's workload shape.
//
// Every bench_-prefixed metric is exported to BENCH_flightrec.json (see
// --out). With --smoke the sizes are truncated for a CI sanity run and
// the process fails unless (a) the journal's correctness contract holds —
// event conservation (recorded == drained + dropped + buffered) under
// concurrent writers and drains, exact ring-full drop counting, and
// cross-thread trace reassembly losing no spans — and (b) per-event
// record cost and recorder-on overhead stay under their gates.
// --no-perf-gate keeps (a) but waives (b): sanitizer builds distort
// timings, so tools/verify_matrix.sh passes it for asan/tsan.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "ml/random_forest.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "querc/classifier.h"
#include "querc/qworker_pool.h"

namespace querc::bench {
namespace {

using obs::EventKind;
using obs::FlightEvent;
using obs::FlightRecorder;

FlightEvent MakeSpanEvent(const obs::TraceContext& ctx, int64_t ts) {
  FlightEvent ev;
  ev.trace_id = ctx.trace_id;
  ev.span_id = ctx.span_id;
  ev.ts_us = ts;
  ev.dur_us = 1;
  ev.kind = static_cast<uint8_t>(EventKind::kSpan);
  ev.SetLabel("bench_stage");
  return ev;
}

/// Drains everything currently buffered so contract checks can reason in
/// exact stat deltas.
void DrainAll(FlightRecorder& rec) {
  std::vector<FlightEvent> sink;
  rec.Drain(&sink);
}

/// Per-event record cost with a concurrent drainer keeping the ring from
/// saturating — the steady-state shape (writer on the hot path, reader
/// polling) rather than the pathological full-ring one.
double MeasureRecordNs(FlightRecorder& rec, size_t events) {
  DrainAll(rec);
  std::atomic<bool> done{false};
  std::thread drainer([&] {
    std::vector<FlightEvent> sink;
    while (!done.load(std::memory_order_acquire)) {
      sink.clear();
      rec.Drain(&sink);
      std::this_thread::yield();
    }
  });
  obs::TraceContext ctx{obs::NewTraceId(), obs::NewSpanId()};
  FlightEvent ev = MakeSpanEvent(ctx, rec.NowUs());
  util::Stopwatch watch;
  for (size_t i = 0; i < events; ++i) rec.Record(ev);
  double ns = watch.ElapsedSeconds() * 1e9 / static_cast<double>(events);
  done.store(true, std::memory_order_release);
  drainer.join();
  DrainAll(rec);
  return ns;
}

/// Aggregate multi-writer throughput (events/second) with one drainer.
double MeasureMultiWriterRate(FlightRecorder& rec, size_t threads,
                              size_t events_per_thread) {
  DrainAll(rec);
  std::atomic<bool> done{false};
  std::thread drainer([&] {
    std::vector<FlightEvent> sink;
    while (!done.load(std::memory_order_acquire)) {
      sink.clear();
      rec.Drain(&sink);
      std::this_thread::yield();
    }
  });
  util::Stopwatch watch;
  std::vector<std::thread> writers;
  writers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    writers.emplace_back([&] {
      obs::TraceContext ctx{obs::NewTraceId(), obs::NewSpanId()};
      FlightEvent ev = MakeSpanEvent(ctx, rec.NowUs());
      for (size_t i = 0; i < events_per_thread; ++i) rec.Record(ev);
    });
  }
  for (auto& w : writers) w.join();
  double seconds = watch.ElapsedSeconds();
  done.store(true, std::memory_order_release);
  drainer.join();
  DrainAll(rec);
  return static_cast<double>(threads * events_per_thread) /
         std::max(seconds, 1e-9);
}

/// The journal's correctness contract, checked in every mode and under
/// every sanitizer:
///  1. conservation: N writers + concurrent drains lose nothing
///     (recorded == drained + dropped, with buffered == 0 after a final
///     drain);
///  2. ring-full drops are counted exactly (write 3x capacity with no
///     reader: capacity kept, 2x capacity dropped, nothing silent);
///  3. cross-thread reassembly: spans emitted from several threads under
///     one trace id all land in the one reassembled trace.
bool CheckContract(FlightRecorder& rec, size_t threads,
                   size_t events_per_thread) {
  bool ok = true;

  // 1. Conservation under concurrent writers + drains.
  {
    DrainAll(rec);
    FlightRecorder::Stats before = rec.stats();
    std::atomic<bool> done{false};
    std::atomic<uint64_t> collected{0};
    std::thread drainer([&] {
      std::vector<FlightEvent> sink;
      while (!done.load(std::memory_order_acquire)) {
        sink.clear();
        rec.Drain(&sink);
        collected.fetch_add(sink.size(), std::memory_order_relaxed);
        std::this_thread::yield();
      }
    });
    std::vector<std::thread> writers;
    for (size_t t = 0; t < threads; ++t) {
      writers.emplace_back([&] {
        obs::TraceContext ctx{obs::NewTraceId(), obs::NewSpanId()};
        FlightEvent ev = MakeSpanEvent(ctx, rec.NowUs());
        for (size_t i = 0; i < events_per_thread; ++i) rec.Record(ev);
      });
    }
    for (auto& w : writers) w.join();
    done.store(true, std::memory_order_release);
    drainer.join();
    std::vector<FlightEvent> tail;
    rec.Drain(&tail);
    collected.fetch_add(tail.size(), std::memory_order_relaxed);
    FlightRecorder::Stats after = rec.stats();
    uint64_t recorded = after.recorded - before.recorded;
    uint64_t drained = after.drained - before.drained;
    uint64_t dropped = after.dropped - before.dropped;
    uint64_t expect = threads * events_per_thread;
    if (recorded != expect || drained != collected.load() ||
        recorded != drained + dropped || after.buffered() != 0) {
      std::fprintf(stderr,
                   "FAIL: contract(1) conservation: recorded=%llu "
                   "(expect %llu) drained=%llu collected=%llu "
                   "dropped=%llu buffered=%llu\n",
                   (unsigned long long)recorded, (unsigned long long)expect,
                   (unsigned long long)drained,
                   (unsigned long long)collected.load(),
                   (unsigned long long)dropped,
                   (unsigned long long)after.buffered());
      ok = false;
    }
  }

  // 2. Exact drop counting: a fresh thread (fresh ring) writes 3x the
  // ring capacity with no reader running.
  {
    DrainAll(rec);
    FlightRecorder::Stats before = rec.stats();
    const size_t cap = FlightRecorder::kRingCapacity;
    std::thread writer([&] {
      obs::TraceContext ctx{obs::NewTraceId(), obs::NewSpanId()};
      FlightEvent ev = MakeSpanEvent(ctx, rec.NowUs());
      for (size_t i = 0; i < 3 * cap; ++i) rec.Record(ev);
    });
    writer.join();
    FlightRecorder::Stats mid = rec.stats();
    std::vector<FlightEvent> sink;
    size_t moved = rec.Drain(&sink);
    if (mid.recorded - before.recorded != 3 * cap ||
        mid.dropped - before.dropped != 2 * cap || moved < cap) {
      std::fprintf(stderr,
                   "FAIL: contract(2) drop counting: recorded=%llu "
                   "dropped=%llu drained=%zu (capacity %zu)\n",
                   (unsigned long long)(mid.recorded - before.recorded),
                   (unsigned long long)(mid.dropped - before.dropped), moved,
                   cap);
      ok = false;
    }
  }

  // 3. Cross-thread reassembly: spans from `threads` writers + a root
  // span on this thread, all one trace id, must fold into one trace with
  // every span present.
  {
    DrainAll(rec);
    obs::TraceContext ctx{obs::NewTraceId(), obs::NewSpanId()};
    const size_t per_thread = 50;
    // Rings are lane-recycled at thread exit; hold every writer alive
    // until all have claimed theirs so the spans land on distinct lanes.
    std::atomic<size_t> claimed{0};
    std::vector<std::thread> writers;
    for (size_t t = 0; t < threads; ++t) {
      writers.emplace_back([&] {
        rec.RecordSpan(ctx, rec.NowUs(), 1, "worker_span");
        claimed.fetch_add(1);
        while (claimed.load() < threads) std::this_thread::yield();
        for (size_t i = 1; i < per_thread; ++i) {
          rec.RecordSpan(ctx, rec.NowUs(), 1, "worker_span");
        }
      });
    }
    for (auto& w : writers) w.join();
    rec.RecordSpan(ctx, rec.NowUs(), 1, "root_span", /*root_span=*/true);
    obs::TraceCollector collector;
    collector.Poll(rec);
    std::vector<obs::FlightTrace> slow = collector.Slowest(1);
    size_t expect = threads * per_thread + 1;
    if (slow.size() != 1 || slow[0].events.size() != expect ||
        slow[0].num_threads() < 2) {
      std::fprintf(stderr,
                   "FAIL: contract(3) reassembly: %zu traces, %zu events "
                   "(expect %zu), %zu threads\n",
                   slow.size(), slow.empty() ? 0 : slow[0].events.size(),
                   expect, slow.empty() ? 0 : slow[0].num_threads());
      ok = false;
    }
  }
  return ok;
}

/// Wall-clock of processing `queries` through a sharded pool (pool state
/// — embed cache, deployed classifiers — is shared and pre-warmed, so
/// on/off runs see identical conditions).
double MeasureWorkloadMs(core::QWorkerPool& pool,
                         const workload::Workload& wl, size_t queries) {
  util::Stopwatch watch;
  for (size_t i = 0; i < queries; ++i) pool.Process(wl[i % wl.size()]);
  return watch.ElapsedMillis();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  bool perf_gate = true;
  const char* out_path = "BENCH_flightrec.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--no-perf-gate") == 0) {
      perf_gate = false;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_flight_recorder [--smoke] [--no-perf-gate] "
                   "[--out FILE]\n");
      return 2;
    }
  }

  FlightRecorder& rec = FlightRecorder::Global();
  auto& registry = obs::MetricsRegistry::Global();

  const size_t record_events = smoke ? (1u << 17) : (1u << 21);  // 128k / 2M
  const size_t mt_threads = 8;
  const size_t mt_per_thread = smoke ? (1u << 14) : (1u << 18);

  std::printf("=== FlightRecorder: record path ===\n");
  double record_ns = MeasureRecordNs(rec, record_events);
  double mt_rate = MeasureMultiWriterRate(rec, mt_threads, mt_per_thread);
  std::printf("  record: %.1f ns/event (1 writer, concurrent drain)\n",
              record_ns);
  std::printf("  multi-writer: %.0f events/s (%zu writers)\n", mt_rate,
              mt_threads);
  registry
      .GetGauge("bench_flightrec_record_ns", {},
                "Per-event FlightRecorder::Record cost, nanoseconds")
      .Set(record_ns);
  registry
      .GetGauge("bench_flightrec_multiwriter_eps", {},
                "Aggregate record throughput with 8 writers, events/second")
      .Set(mt_rate);

  bool contract_ok =
      CheckContract(rec, /*threads=*/4, smoke ? 20000 : 100000);
  registry
      .GetGauge("bench_flightrec_contract_ok", {},
                "1 when conservation/drop-counting/reassembly checks passed")
      .Set(contract_ok ? 1.0 : 0.0);

  // Recorder-on vs recorder-off on bench_qworker_throughput's workload
  // shape: snowflake multi-tenant stream through a sharded QWorkerPool
  // with an embedding classifier deployed and no-op sinks.
  std::printf("=== recorder overhead on the QWorker pipeline ===\n");
  workload::SnowflakeGenerator::Options gopt;
  gopt.seed = 5;
  gopt.accounts = workload::SnowflakeGenerator::UniformAccounts(4, 250, 5);
  workload::Workload wl = workload::SnowflakeGenerator(gopt).Generate();

  auto eopt = Doc2VecBenchOptions();
  eopt.epochs = smoke ? 2 : 4;
  auto embedder = std::make_shared<embed::Doc2VecEmbedder>(eopt);
  TrainEmbedder(*embedder, wl, "doc2vec");
  auto classifier = std::make_shared<core::Classifier>(
      "user", embedder,
      std::make_unique<ml::RandomForestClassifier>(
          ml::RandomForestClassifier::Options{}));
  if (!classifier->Train(wl, workload::UserOf).ok()) {
    std::fprintf(stderr, "classifier training failed\n");
    return 1;
  }
  core::QWorkerPool::Options popt;
  popt.application = "bench_flightrec";
  popt.num_shards = 2;
  popt.worker.enable_lint = true;
  core::QWorkerPool pool(popt);
  pool.Deploy(classifier);
  pool.set_database_sink([](const workload::LabeledQuery&) {});
  pool.set_training_sink([](const core::ProcessedQuery&) {});

  const size_t queries = smoke ? 400 : 2000;
  // Warm every cache (embed templates, counters) before timing; drain so
  // the timed runs start from an empty journal. Each pair times
  // recorder-off and recorder-on back to back, which of the two goes
  // first alternating by pair, so machine drift (frequency scaling, page
  // cache) cancels instead of landing on one side of the ratio. The gate
  // reads the median of the per-pair ratios: one preempted run moves one
  // pair, not the result.
  const int pairs = 21;
  MeasureWorkloadMs(pool, wl, queries);
  DrainAll(rec);
  std::vector<double> off_runs;
  std::vector<double> on_runs;
  std::vector<double> ratios;
  for (int pair = 0; pair < pairs; ++pair) {
    double off = 0.0;
    double on = 0.0;
    for (bool enabled : {pair % 2 == 1, pair % 2 == 0}) {
      rec.set_enabled(enabled);
      (enabled ? on : off) = MeasureWorkloadMs(pool, wl, queries);
    }
    DrainAll(rec);
    off_runs.push_back(off);
    on_runs.push_back(on);
    ratios.push_back(on / std::max(off, 1e-9));
  }
  rec.set_enabled(true);
  double off_ms = Median(off_runs);
  double on_ms = Median(on_runs);
  double ratio = Median(ratios);
  std::printf("  %zu queries, %d interleaved pairs: recorder-off %.1f ms, "
              "recorder-on %.1f ms (medians; median pair ratio %.3f)\n",
              queries, pairs, off_ms, on_ms, ratio);
  registry
      .GetGauge("bench_flightrec_workload_ms", {{"recorder", "off"}},
                "QWorker pipeline wall-clock, recorder disabled, median "
                "ms")
      .Set(off_ms);
  registry
      .GetGauge("bench_flightrec_workload_ms", {{"recorder", "on"}}, "")
      .Set(on_ms);
  registry
      .GetGauge("bench_flightrec_overhead_ratio", {},
                "median over interleaved pairs of recorder-on / "
                "recorder-off wall-clock on the QWorker pipeline workload")
      .Set(ratio);

  std::string json = obs::ExportJson(registry, "bench_");
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path);

  if (!contract_ok) return 1;
  if (smoke && perf_gate) {
    if (record_ns > 250.0) {
      std::fprintf(stderr,
                   "FAIL: record path %.1f ns/event exceeds the 250 ns "
                   "gate\n",
                   record_ns);
      return 1;
    }
    if (ratio > 1.05) {
      std::fprintf(stderr,
                   "FAIL: recorder-on overhead ratio %.3f (median of %d "
                   "pairs) exceeds the 1.05 gate\n",
                   ratio, pairs);
      return 1;
    }
  }
  if (smoke) std::printf("smoke OK\n");
  return 0;
}

}  // namespace
}  // namespace querc::bench

int main(int argc, char** argv) { return querc::bench::Main(argc, argv); }
