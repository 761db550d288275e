#include "obs/trace.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/stats_reporter.h"

namespace querc::obs {
namespace {

TEST(Span, RecordsIntoHistogram) {
  Histogram h;
  {
    Span span(&h);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_GE(snap.max, 0.5);
}

TEST(Span, EndRecordsOnceAndDisarmsDestructor) {
  Histogram h;
  {
    Span span(&h);
    span.End();
    span.End();
  }
  EXPECT_EQ(h.Snapshot().count, 1u);
}

TEST(Span, MoveTransfersOwnership) {
  Histogram h;
  {
    Span outer = [&h] { return Span(&h); }();
    (void)outer;
  }
  // The moved-from temporary must not double-record.
  EXPECT_EQ(h.Snapshot().count, 1u);
}

TEST(Trace, CurrentNestsAndRestores) {
  // A trace under an adopted context joins it and, on exit, reinstalls
  // exactly the context it displaced (same trace and span id).
  TraceContext adopted{NewTraceId(), NewSpanId()};
  ScopedTraceContext adopt(adopted);
  {
    Trace outer("outer");
    EXPECT_EQ(CurrentContext().span_id, outer.context().span_id);
    {
      Trace inner("inner");
      EXPECT_EQ(CurrentContext().span_id, inner.context().span_id);
      EXPECT_EQ(inner.context().trace_id, adopted.trace_id);
    }
    EXPECT_EQ(CurrentContext().span_id, outer.context().span_id);
  }
  EXPECT_EQ(CurrentContext().trace_id, adopted.trace_id);
  EXPECT_EQ(CurrentContext().span_id, adopted.span_id);
}

TEST(Trace, IsConfinedToItsThread) {
  Trace trace("main-thread");
  std::atomic<uint64_t> seen{1};
  std::thread other([&seen] { seen.store(CurrentContext().trace_id); });
  other.join();
  EXPECT_EQ(seen.load(), 0u);
  EXPECT_EQ(CurrentContext().trace_id, trace.context().trace_id);
}

TEST(Trace, CollectsStageBreakdownFromSpans) {
  // The per-query breakdown lives in the flight recorder: each named span
  // under a trace is journaled with the trace's ids, in completion order,
  // followed by the trace's own root span.
  std::vector<FlightEvent> events;
  FlightRecorder::Global().Drain(&events);
  events.clear();
  Histogram lex_hist;
  Histogram embed_hist;
  TraceContext ctx;
  {
    Trace trace("process");
    ctx = trace.context();
    { Span span(&lex_hist, "lex"); }
    { Span span(&embed_hist, "embed"); }
  }
  FlightRecorder::Global().Drain(&events);
  std::vector<std::string> labels;
  for (const FlightEvent& ev : events) {
    if (ev.trace_id != ctx.trace_id) continue;
    EXPECT_EQ(ev.event_kind(), EventKind::kSpan);
    EXPECT_EQ(ev.span_id, ctx.span_id);
    labels.emplace_back(ev.label);
  }
  EXPECT_EQ(labels, (std::vector<std::string>{"lex", "embed", "process"}));
  EXPECT_EQ(lex_hist.Snapshot().count, 1u);
  EXPECT_EQ(embed_hist.Snapshot().count, 1u);
}

TEST(Trace, RecordsTotalIntoHistogram) {
  Histogram total;
  { Trace trace("timed", &total); }
  EXPECT_EQ(total.Snapshot().count, 1u);
}

TEST(StageHistogram, SharesSeriesPerStage) {
  Histogram& a = StageHistogram("unit_test_stage");
  Histogram& b = StageHistogram("unit_test_stage");
  EXPECT_EQ(&a, &b);
  uint64_t before = a.Snapshot().count;
  { Span span(&a, "unit_test_stage"); }
  EXPECT_EQ(a.Snapshot().count, before + 1);
}

TEST(StatsReporter, SummaryLineReflectsRegistry) {
  MetricsRegistry registry;
  registry.GetCounter("querc_q_total").Increment(9);
  registry.GetHistogram("querc_lat_ms").Record(2.0);
  StatsReporter::Options options;
  options.registry = &registry;
  StatsReporter reporter(options);
  std::string line = reporter.SummaryLine();
  EXPECT_EQ(line.rfind("stats:", 0), 0u);
  EXPECT_NE(line.find("querc_q_total=9"), std::string::npos);
  EXPECT_NE(line.find("querc_lat_ms[n=1"), std::string::npos);
}

TEST(StatsReporter, PeriodicallyEmitsThroughSink) {
  MetricsRegistry registry;
  registry.GetCounter("querc_ticks_total").Increment();
  std::mutex mu;
  std::vector<std::string> lines;
  StatsReporter::Options options;
  options.registry = &registry;
  options.interval = std::chrono::milliseconds(5);
  options.sink = [&mu, &lines](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  };
  StatsReporter reporter(options);
  reporter.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  reporter.Stop();
  std::lock_guard<std::mutex> lock(mu);
  // Several periodic lines plus the final flush from Stop().
  ASSERT_GE(lines.size(), 2u);
  for (const auto& line : lines) {
    EXPECT_NE(line.find("querc_ticks_total=1"), std::string::npos);
  }
}

TEST(StatsReporter, StopWithoutStartFlushesNothing) {
  int calls = 0;
  StatsReporter::Options options;
  options.sink = [&calls](const std::string&) { ++calls; };
  {
    StatsReporter reporter(options);
    reporter.Stop();
  }
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace querc::obs
