#include "obs/flight_recorder.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "embed/feature_embedder.h"
#include "ml/knn.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "querc/classifier.h"
#include "querc/qworker_pool.h"
#include "querc/resilience.h"
#include "util/failpoint.h"
#include "workload/workload.h"

namespace querc::obs {
namespace {

FlightRecorder& Recorder() { return FlightRecorder::Global(); }

/// Flushes everything buffered so each test reasons in clean deltas.
void DrainAll() {
  std::vector<FlightEvent> sink;
  Recorder().Drain(&sink);
}

FlightEvent SpanEvent(const TraceContext& ctx, int64_t ts, int64_t dur,
                      const char* label) {
  FlightEvent ev;
  ev.trace_id = ctx.trace_id;
  ev.span_id = ctx.span_id;
  ev.ts_us = ts;
  ev.dur_us = dur;
  ev.kind = static_cast<uint8_t>(EventKind::kSpan);
  ev.SetLabel(label);
  return ev;
}

// ---------------------------------------------------------------------------
// Event layout
// ---------------------------------------------------------------------------

TEST(FlightEventTest, IsOneCacheLineWithBoundedLabel) {
  static_assert(sizeof(FlightEvent) == 64, "events must stay one cache line");
  FlightEvent ev;
  ev.SetLabel("short");
  EXPECT_STREQ(ev.label, "short");
  // Longer than the 24-char capacity: truncated, always NUL-terminated.
  ev.SetLabel("qworker.classifier_predict");
  EXPECT_EQ(std::strlen(ev.label), FlightEvent::kLabelSize - 1);
  EXPECT_STREQ(ev.label, "qworker.classifier_predi");
}

// ---------------------------------------------------------------------------
// Record / drain
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, RecordDrainRoundTrip) {
  DrainAll();
  TraceContext ctx{NewTraceId(), NewSpanId()};
  Recorder().Record(SpanEvent(ctx, 100, 5, "stage_a"));
  Recorder().RecordInstant(EventKind::kRetry, "sink_database", 2);

  std::vector<FlightEvent> out;
  Recorder().Drain(&out);
  std::vector<const FlightEvent*> mine;
  for (const FlightEvent& ev : out) {
    if (ev.trace_id == ctx.trace_id || ev.event_kind() == EventKind::kRetry) {
      mine.push_back(&ev);
    }
  }
  ASSERT_EQ(mine.size(), 2u);
  EXPECT_EQ(mine[0]->event_kind(), EventKind::kSpan);
  EXPECT_EQ(mine[0]->span_id, ctx.span_id);
  EXPECT_EQ(mine[0]->dur_us, 5);
  EXPECT_STREQ(mine[0]->label, "stage_a");
  EXPECT_NE(mine[0]->tid, 0u);  // lane ids start at 1
  EXPECT_EQ(mine[1]->event_kind(), EventKind::kRetry);
  EXPECT_EQ(mine[1]->detail, 2);
  EXPECT_EQ(Recorder().stats().buffered(), 0u);
}

TEST(FlightRecorderTest, DisabledRecorderIsInert) {
  DrainAll();
  FlightRecorder::Stats before = Recorder().stats();
  Recorder().set_enabled(false);
  TraceContext ctx{NewTraceId(), NewSpanId()};
  Recorder().Record(SpanEvent(ctx, 1, 1, "ignored"));
  Recorder().RecordInstant(EventKind::kShed, "ignored");
  Recorder().set_enabled(true);
  FlightRecorder::Stats after = Recorder().stats();
  EXPECT_EQ(after.recorded, before.recorded);
  EXPECT_EQ(after.buffered(), 0u);
}

TEST(FlightRecorderTest, RingFullDropsAreCountedExactly) {
  DrainAll();
  FlightRecorder::Stats before = Recorder().stats();
  constexpr size_t kCap = FlightRecorder::kRingCapacity;
  // A dedicated thread gets a ring with a known-empty [tail, head) window;
  // writing 3x capacity with no reader must keep exactly `capacity` events
  // and count exactly 2x capacity as dropped — nothing silent.
  std::thread writer([] {
    TraceContext ctx{NewTraceId(), NewSpanId()};
    for (size_t i = 0; i < 3 * kCap; ++i) {
      Recorder().Record(SpanEvent(ctx, static_cast<int64_t>(i), 1, "flood"));
    }
  });
  writer.join();
  FlightRecorder::Stats mid = Recorder().stats();
  EXPECT_EQ(mid.recorded - before.recorded, 3 * kCap);
  EXPECT_EQ(mid.dropped - before.dropped, 2 * kCap);
  std::vector<FlightEvent> out;
  size_t drained = Recorder().Drain(&out);
  EXPECT_GE(drained, kCap);
  FlightRecorder::Stats after = Recorder().stats();
  EXPECT_EQ(after.recorded, after.drained + after.dropped);
  EXPECT_EQ(after.buffered(), 0u);
}

// The TSan headline test: N writers race a concurrent drainer and every
// event is accounted for — recorded == drained + dropped, and everything
// the drainer collected is exactly what the stats say was drained.
TEST(FlightRecorderTest, ConservationUnderConcurrentWritersAndDrains) {
  DrainAll();
  FlightRecorder::Stats before = Recorder().stats();
  constexpr size_t kWriters = 4;
  constexpr size_t kPerWriter = 20000;

  std::atomic<bool> done{false};
  std::atomic<uint64_t> collected{0};
  std::thread drainer([&] {
    std::vector<FlightEvent> sink;
    while (!done.load(std::memory_order_acquire)) {
      sink.clear();
      Recorder().Drain(&sink);
      collected.fetch_add(sink.size(), std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> writers;
  for (size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([t] {
      TraceContext ctx{NewTraceId(), NewSpanId()};
      for (size_t i = 0; i < kPerWriter; ++i) {
        Recorder().Record(
            SpanEvent(ctx, static_cast<int64_t>(t * kPerWriter + i), 1, "w"));
      }
    });
  }
  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_release);
  drainer.join();
  std::vector<FlightEvent> tail;
  Recorder().Drain(&tail);
  collected.fetch_add(tail.size(), std::memory_order_relaxed);

  FlightRecorder::Stats after = Recorder().stats();
  EXPECT_EQ(after.recorded - before.recorded, kWriters * kPerWriter);
  EXPECT_EQ(after.drained - before.drained, collected.load());
  EXPECT_EQ(after.recorded, after.drained + after.dropped);
  EXPECT_EQ(after.buffered(), 0u);
}

// ---------------------------------------------------------------------------
// Trace reassembly
// ---------------------------------------------------------------------------

TEST(TraceCollectorTest, CrossThreadSpansReassembleIntoOneTrace) {
  DrainAll();
  TraceContext ctx{NewTraceId(), NewSpanId()};
  constexpr size_t kThreads = 3;
  constexpr size_t kPerThread = 40;
  // Rings are lane-recycled at thread exit; hold every worker alive until
  // all have claimed theirs so the spans really land on distinct lanes.
  std::atomic<size_t> claimed{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&ctx, &claimed] {
      Recorder().RecordSpan(ctx, Recorder().NowUs(), 1, "worker_span");
      claimed.fetch_add(1);
      while (claimed.load() < kThreads) std::this_thread::yield();
      for (size_t i = 1; i < kPerThread; ++i) {
        Recorder().RecordSpan(ctx, Recorder().NowUs(), 1, "worker_span");
      }
    });
  }
  for (auto& w : workers) w.join();
  // Root written last, from this thread — the collector must still fold
  // in the worker spans that landed in rings scanned before this one.
  Recorder().RecordSpan(ctx, Recorder().NowUs(), 1000, "batch_root",
                        /*root_span=*/true);

  TraceCollector collector;
  collector.Poll();
  EXPECT_EQ(collector.completed_traces(), 1u);
  std::vector<FlightTrace> slow = collector.Slowest(4);
  ASSERT_EQ(slow.size(), 1u);
  const FlightTrace& trace = slow[0];
  EXPECT_EQ(trace.trace_id, ctx.trace_id);
  EXPECT_EQ(trace.root_label, "batch_root");
  EXPECT_EQ(trace.events.size(), kThreads * kPerThread + 1);
  EXPECT_GE(trace.num_threads(), 2u);
  // Events are time-ordered within the reassembled trace.
  for (size_t i = 1; i < trace.events.size(); ++i) {
    EXPECT_LE(trace.events[i - 1].ts_us, trace.events[i].ts_us);
  }
}

TEST(TraceCollectorTest, ReservoirKeepsSlowestAndCountsEvictions) {
  DrainAll();
  TraceCollector::Options options;
  options.reservoir_capacity = 2;
  TraceCollector collector(options);
  // Four root-only traces with durations 10, 40, 20, 30 ms.
  const int64_t durs[] = {10000, 40000, 20000, 30000};
  for (int64_t dur : durs) {
    TraceContext ctx{NewTraceId(), NewSpanId()};
    Recorder().RecordSpan(ctx, Recorder().NowUs(), dur, "q", true);
    collector.Poll();
  }
  EXPECT_EQ(collector.completed_traces(), 4u);
  EXPECT_EQ(collector.reservoir_evictions(), 2u);
  std::vector<FlightTrace> slow = collector.Slowest(10);
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].root_dur_us, 40000);
  EXPECT_EQ(slow[1].root_dur_us, 30000);
}

TEST(TraceCollectorTest, CountMatchesTruncatedJournalLabels) {
  DrainAll();
  TraceCollector collector;
  // 26 chars — longer than the event's 24-char label capacity. Count()
  // must still match when queried with the untruncated name.
  Recorder().RecordInstant(EventKind::kFailpoint,
                           "qworker.classifier_predict");
  Recorder().RecordInstant(EventKind::kFailpoint, "other.point");
  collector.Poll();
  EXPECT_EQ(collector.Count(EventKind::kFailpoint,
                            "qworker.classifier_predict"),
            1u);
  EXPECT_EQ(collector.Count(EventKind::kFailpoint), 2u);
  EXPECT_EQ(collector.untraced_events(), 2u);
}

// ---------------------------------------------------------------------------
// Perfetto / Chrome trace-event export
// ---------------------------------------------------------------------------

TEST(ExportTest, ChromeTraceEscapesLabelsAndSortsTimestamps) {
  FlightTrace trace;
  trace.trace_id = 0x1234;
  trace.root_label = "root";
  trace.root_ts_us = 100;
  trace.root_dur_us = 300;
  TraceContext ctx{0x1234, 0x1};
  FlightEvent weird = SpanEvent(ctx, 300, 4, "x");
  // Raw quote, backslash, newline, and a control byte — all must come out
  // as valid JSON escapes.
  std::memcpy(weird.label, "a\"b\\c\nd\x01", 9);
  trace.events.push_back(SpanEvent(ctx, 200, 2, "mid"));
  trace.events.push_back(weird);
  trace.events.push_back(SpanEvent(ctx, 100, 300, "root"));
  trace.events.back().flags |= FlightEvent::kRootSpan;
  FlightEvent instant;
  instant.trace_id = 0x1234;
  instant.ts_us = 250;
  instant.kind = static_cast<uint8_t>(EventKind::kShed);
  instant.SetLabel("reject_new");
  trace.events.push_back(instant);

  std::string json = ExportChromeTrace({trace});
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"root\":true"), std::string::npos);
  EXPECT_NE(json.find("0x0000000000001234"), std::string::npos);
  // Events sorted by timestamp regardless of insertion order.
  size_t p100 = json.find("\"ts\":100");
  size_t p200 = json.find("\"ts\":200");
  size_t p250 = json.find("\"ts\":250");
  size_t p300 = json.find("\"ts\":300");
  ASSERT_NE(p100, std::string::npos);
  ASSERT_NE(p300, std::string::npos);
  EXPECT_LT(p100, p200);
  EXPECT_LT(p200, p250);
  EXPECT_LT(p250, p300);
  // Structural sanity: every brace/bracket closed, no raw control bytes.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  for (char c : json) EXPECT_GE(static_cast<unsigned char>(c), 0x20);
}

TEST(ExportTest, FlightTraceLineSummarizesSpansAndInstants) {
  FlightTrace trace;
  trace.trace_id = 0xabc;
  trace.root_label = "pool_process_batch";
  trace.root_ts_us = 0;
  trace.root_dur_us = 12500;
  TraceContext ctx{0xabc, 0x2};
  trace.events.push_back(SpanEvent(ctx, 10, 2000, "embed"));
  FlightEvent shed;
  shed.trace_id = 0xabc;
  shed.kind = static_cast<uint8_t>(EventKind::kShed);
  shed.SetLabel("reject_new");
  trace.events.push_back(shed);

  std::string line = FlightTraceLine(trace);
  EXPECT_NE(line.find("pool_process_batch"), std::string::npos);
  EXPECT_NE(line.find("12.5"), std::string::npos);
  EXPECT_NE(line.find("embed"), std::string::npos);
  EXPECT_NE(line.find("shed:reject_new"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metric/journal reconciliation: at quiescence, the Prometheus counters
// and the journal agree event-for-event.
// ---------------------------------------------------------------------------

uint64_t BreakerTransitionCounters(const std::string& breaker) {
  auto& registry = MetricsRegistry::Global();
  uint64_t total = 0;
  for (const char* to : {"closed", "open", "half-open"}) {
    total += registry
                 .GetCounter("querc_breaker_transitions_total",
                             {{"breaker", breaker}, {"to", to}},
                             "Circuit-breaker state transitions")
                 .value();
  }
  return total;
}

TEST(ReconcileTest, BreakerTransitionsMatchJournal) {
  DrainAll();
  TraceCollector collector;
  const std::string name = "flightrec_test_breaker";
  uint64_t counters_before = BreakerTransitionCounters(name);

  core::CircuitBreakerOptions options;
  options.window = 4;
  options.min_samples = 2;
  options.failure_ratio = 0.5;
  options.open_ms = 5.0;
  options.half_open_probes = 1;
  core::CircuitBreaker breaker(name, options);
  breaker.RecordFailure();
  breaker.RecordFailure();  // -> open
  ASSERT_EQ(breaker.state(), core::CircuitBreaker::State::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(breaker.Allow());  // -> half-open, probe admitted
  breaker.RecordSuccess();       // -> closed
  ASSERT_EQ(breaker.state(), core::CircuitBreaker::State::kClosed);

  collector.Poll();
  uint64_t counter_delta = BreakerTransitionCounters(name) - counters_before;
  EXPECT_EQ(counter_delta, 3u);
  EXPECT_EQ(collector.Count(EventKind::kBreakerTransition, name),
            counter_delta);
}

TEST(ReconcileTest, ShedCounterMatchesJournal) {
  DrainAll();
  TraceCollector collector;
  auto& counter = MetricsRegistry::Global().GetCounter(
      "querc_shed_total", {{"policy", "reject_new"}},
      "Queries shed at pool admission, per shed policy");
  uint64_t before = counter.value();

  core::QWorkerPool::Options options;
  options.application = "flightrec_shed";
  options.num_shards = 2;
  options.max_in_flight = 4;
  core::QWorkerPool pool(options);
  workload::Workload batch;
  for (int i = 0; i < 10; ++i) {
    workload::LabeledQuery q;
    q.text = "SELECT " + std::to_string(i);
    q.account = "acct" + std::to_string(i);
    batch.Add(q);
  }
  auto results = pool.ProcessBatch(batch);
  size_t shed = 0;
  for (const auto& r : results) shed += r.shed ? 1 : 0;
  ASSERT_EQ(shed, 6u);  // 10 queries, 4 slots: deterministic tail shed

  collector.Poll();
  EXPECT_EQ(counter.value() - before, 6u);
  EXPECT_EQ(collector.Count(EventKind::kShed, "reject_new"), 6u);
}

TEST(ReconcileTest, FailpointTriggersMatchJournal) {
  util::Failpoints::Global().DisarmAll();
  DrainAll();
  TraceCollector collector;
  const std::string point = "flightrec.test_point";
  auto& counter = MetricsRegistry::Global().GetCounter(
      "querc_failpoint_triggers_total", {{"point", point}},
      "Times an armed failpoint's action fired");
  uint64_t before = counter.value();

  util::FailpointSpec spec;
  spec.action = util::FailAction::kError;
  util::Failpoints::Global().Arm(point, spec);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(util::Failpoints::Global().Evaluate(point).ok());
  }
  EXPECT_EQ(util::Failpoints::Global().hits(point), 3u);
  util::Failpoints::Global().DisarmAll();

  collector.Poll();
  EXPECT_EQ(counter.value() - before, 3u);
  EXPECT_EQ(collector.Count(EventKind::kFailpoint, point), 3u);
}

// ---------------------------------------------------------------------------
// End to end: a batch through a sharded pool reassembles into one trace
// with spans from at least two threads.
// ---------------------------------------------------------------------------

TEST(PoolIntegrationTest, ProcessBatchTraceSpansMultipleThreads) {
  DrainAll();
  auto embedder = std::make_shared<embed::FeatureEmbedder>(
      embed::FeatureEmbedder::Options{});
  auto classifier = std::make_shared<core::Classifier>(
      "user", embedder,
      std::make_unique<ml::KnnClassifier>(ml::KnnClassifier::Options{.k = 1}));
  workload::Workload history;
  for (int i = 0; i < 8; ++i) {
    workload::LabeledQuery q;
    q.text = i % 2 == 0 ? "SELECT a FROM t WHERE x = 1"
                        : "SELECT b, c FROM u, v WHERE u.k = v.k";
    q.user = i % 2 == 0 ? "alice" : "bob";
    q.account = "acct1";
    history.Add(q);
  }
  ASSERT_TRUE(classifier->Train(history, workload::UserOf).ok());

  core::QWorkerPool::Options options;
  options.application = "flightrec_e2e";
  options.num_shards = 2;
  options.partition = core::QWorkerPool::Partition::kRoundRobin;
  core::QWorkerPool pool(options);
  pool.Deploy(classifier);
  // The batch is tiny, so one pool worker could drain both shard tasks
  // before the other wakes. Hold each shard's first query in the sink
  // until two distinct threads have checked in, forcing the fan-out the
  // test is about (bounded wait: a 1-thread schedule fails, not hangs).
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> sink_threads;
  pool.set_database_sink([&](const workload::LabeledQuery&) {
    std::unique_lock<std::mutex> lock(mu);
    sink_threads.insert(std::this_thread::get_id());
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(5),
                [&] { return sink_threads.size() >= 2; });
  });

  workload::Workload batch;
  for (int i = 0; i < 12; ++i) {
    workload::LabeledQuery q;
    q.text = "SELECT a FROM t WHERE x = " + std::to_string(i);
    q.account = "acct" + std::to_string(i % 3);
    batch.Add(q);
  }
  auto results = pool.ProcessBatch(batch);
  ASSERT_EQ(results.size(), 12u);

  TraceCollector collector;
  collector.Poll();
  std::vector<FlightTrace> slow = collector.Slowest(16);
  const FlightTrace* batch_trace = nullptr;
  for (const FlightTrace& t : slow) {
    if (t.root_label == "pool_process_batch") batch_trace = &t;
  }
  ASSERT_NE(batch_trace, nullptr)
      << "ProcessBatch must complete a pool_process_batch trace";
  // Spans from both shard workers (distinct rings) joined the one trace.
  EXPECT_GE(batch_trace->num_threads(), 2u);
  size_t compute_spans = 0;
  size_t commit_spans = 0;
  for (const FlightEvent& ev : batch_trace->events) {
    if (std::strcmp(ev.label, "qworker_compute") == 0) ++compute_spans;
    if (std::strcmp(ev.label, "qworker_commit") == 0) ++commit_spans;
  }
  EXPECT_EQ(compute_spans, 12u)
      << "every per-query compute span must fold into the batch trace";
  EXPECT_EQ(commit_spans, 12u)
      << "every per-query commit span must fold into the batch trace";
}

}  // namespace
}  // namespace querc::obs
