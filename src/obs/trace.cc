#include "obs/trace.h"

#include "obs/flight_recorder.h"

namespace querc::obs {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

Histogram& StageHistogram(const std::string& stage) {
  return MetricsRegistry::Global().GetHistogram(
      "querc_stage_ms", {{"stage", stage}},
      "Per-stage latency of the query pipeline in milliseconds");
}

void Span::End() {
  if (hist_ == nullptr) return;
  double ms = MsSince(start_);
  hist_->Record(ms);
  if (stage_ != nullptr) {
    TraceContext ctx = CurrentContext();
    if (ctx.valid()) {
      FlightRecorder& rec = FlightRecorder::Global();
      int64_t ts = rec.ToUs(start_);
      rec.RecordSpan(ctx, ts, static_cast<int64_t>(ms * 1000.0), stage_);
    }
  }
  hist_ = nullptr;
}

Trace::Trace(const char* name, Histogram* total_hist)
    : name_(name), total_hist_(total_hist), start_(Clock::now()) {
  // Join the context adopted from whoever fanned this work out (same
  // trace id, fresh span id), or own a new trace when there is none.
  TraceContext current = CurrentContext();
  owns_trace_ = !current.valid();
  ctx_.trace_id = owns_trace_ ? NewTraceId() : current.trace_id;
  ctx_.span_id = NewSpanId();
  prev_ctx_ = InstallContext(ctx_);
}

Trace::~Trace() {
  FlightRecorder& rec = FlightRecorder::Global();
  int64_t ts = rec.ToUs(start_);
  int64_t dur = rec.NowUs() - ts;
  if (dur < 1) dur = 1;  // "X" events with dur 0 vanish in trace viewers
  rec.RecordSpan(ctx_, ts, dur, name_, owns_trace_);
  if (total_hist_ != nullptr) total_hist_->Record(ElapsedMs());
  InstallContext(prev_ctx_);
}

double Trace::ElapsedMs() const { return MsSince(start_); }

}  // namespace querc::obs
