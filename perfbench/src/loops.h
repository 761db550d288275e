#ifndef PERFBENCH_LOOPS_H_
#define PERFBENCH_LOOPS_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "spans.h"

namespace perfbench {

/// The two instants around one call into the service: the caller stamps
/// `call` right before handing the batch over and `ret` right after it
/// returns, so work it does before or after (building the batch, checking
/// the outputs) stays outside the batch time.
struct CallStamps {
  Clock::time_point call;
  Clock::time_point ret;
};

/// Serves the next `count` queries of the stream in one call, stamping
/// `stamps`.
using ServeFn = std::function<void(size_t count, CallStamps* stamps)>;

/// Whether a phase should end (checked before each call).
using DoneFn = std::function<bool()>;

/// One call into the service.
struct Dispatch {
  size_t first = 0;  ///< index of its first query in the phase
  size_t count = 0;
  CallStamps stamps;
};

/// Per-query timings of an open-loop phase, all in milliseconds and all
/// measured from the query's *scheduled* arrival: response = dispatch
/// wait (due -> call) + batch time (call -> return).
struct OpenLoopResult {
  std::vector<Dispatch> dispatches;
  std::vector<double> response_ms;
  std::vector<double> dispatch_wait_ms;  ///< how late the generator ran
  std::vector<double> batch_ms;          ///< the carrying call's time
  double wall_s = 0.0;                   ///< phase start -> last return
  /// The backlog grew across the phase (see BacklogGrows): the offered
  /// rate is above what the service sustains, so its percentiles measure
  /// the phase length, not the service.
  bool overloaded = false;
};

/// Replays `schedule` (arrival offsets in seconds, ascending) from now:
/// one generator thread waits for the next due time, then hands every
/// query already due to one `serve` call. Never sends early; a slow call
/// makes the queries that come due meanwhile wait, and that wait counts.
/// Stops at the end of the schedule or, earlier, once `done()` is true:
/// the queries due by then are still served, later ones are not part of
/// the phase.
OpenLoopResult RunOpenLoop(const std::vector<double>& schedule,
                           const ServeFn& serve, const DoneFn& done);

/// A closed loop: one caller hands fixed-size batches back to back until
/// `done()`.
struct ClosedLoopResult {
  std::vector<Dispatch> dispatches;
  double wall_s = 0.0;
  size_t queries = 0;
};

ClosedLoopResult RunClosedLoop(size_t batch_size, const ServeFn& serve,
                               const DoneFn& done);

/// A DoneFn that turns true `seconds` from now.
DoneFn After(double seconds);

/// Whether the backlog grew across a phase, judged by the response times
/// in arrival order: the median of the last quarter exceeds twice that of
/// the first quarter plus one millisecond. (Dispatch waits alone can miss
/// it: the last call sweeps up the whole backlog at once, so the latest
/// arrivals wait little and pay in batch time instead.)
bool BacklogGrows(const std::vector<double>& response_ms);

double Ms(Clock::duration d);

}  // namespace perfbench

#endif  // PERFBENCH_LOOPS_H_
