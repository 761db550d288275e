#ifndef QUERC_OBS_TRACE_H_
#define QUERC_OBS_TRACE_H_

#include <chrono>
#include <string>

#include "obs/metrics.h"
#include "obs/trace_context.h"

namespace querc::obs {

/// The histogram `querc_stage_ms{stage=<stage>}` in the global registry —
/// one time series per pipeline stage (lex, normalize, embed, classify,
/// sink_database, sink_training, ...). Takes the registry mutex; hot call
/// sites should cache the reference in a function-local static.
Histogram& StageHistogram(const std::string& stage);

/// Scoped stage timer: records its elapsed milliseconds into `hist` when
/// it ends (destruction or End()). When constructed with a stage name and
/// this thread carries a TraceContext, a span event with that context is
/// also written to the flight recorder — the journal is the per-query
/// stage breakdown, across threads. `stage` must outlive the span — pass
/// a string literal. The record path touches only the histogram's atomics
/// and this thread's journal ring: no mutex.
class Span {
 public:
  explicit Span(Histogram* hist, const char* stage = nullptr)
      : hist_(hist), stage_(stage), start_(Clock::now()) {}
  ~Span() { End(); }

  Span(Span&& other) noexcept
      : hist_(other.hist_), stage_(other.stage_), start_(other.start_) {
    other.hist_ = nullptr;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span& operator=(Span&&) = delete;

  /// Records once; further calls (and destruction) are no-ops.
  void End();

 private:
  using Clock = std::chrono::steady_clock;
  Histogram* hist_;
  const char* stage_;
  Clock::time_point start_;
};

/// Per-request trace: marks this thread as "inside request `name`" for its
/// scope, so the stage spans recorded on the way (lex → normalize → embed
/// → classify → sink) are journaled under its trace id, and optionally
/// records the total duration into `total_hist`.
///
/// Each Trace manages this thread's TraceContext: if a context is
/// already installed (e.g. adopted from the thread that fanned this work
/// out), the trace *joins* it — same trace id, fresh span id; otherwise it
/// *owns* a new trace id. On destruction it writes its span to the flight
/// recorder — flagged as the root span when it owns the trace, which is
/// what tells the trace collector the per-query trace is complete.
class Trace {
 public:
  explicit Trace(const char* name, Histogram* total_hist = nullptr);
  ~Trace();

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  double ElapsedMs() const;

  /// The flight-recorder identity of this trace (always valid).
  const TraceContext& context() const { return ctx_; }
  /// True when this trace created the trace id (vs. joining an adopted
  /// context) — its closing span is the root span.
  bool owns_trace() const { return owns_trace_; }

 private:
  using Clock = std::chrono::steady_clock;
  const char* name_;
  Histogram* total_hist_;
  TraceContext ctx_;
  TraceContext prev_ctx_;
  bool owns_trace_;
  Clock::time_point start_;
};

}  // namespace querc::obs

#endif  // QUERC_OBS_TRACE_H_
