#include "loops.h"

#include <sys/prctl.h>

#include <thread>

#include "stats.h"

namespace perfbench {

namespace {

/// The generator sleeps until just short of the next arrival, as a client
/// blocked on its next request would, and spins the last stretch: a wake-up
/// can come late, more so on a virtual machine whose idle cpu must be woken,
/// while a generator that spun all the time would use up its scheduler
/// share and, beside the training threads of retrain_under_load, lose the
/// cpu for whole time slices. RunOpenLoop also cuts the thread's timer
/// slack, so the sleep is not stretched by the default 50 us.
constexpr auto kSpinWindow = std::chrono::microseconds(50);

void WaitUntil(Clock::time_point due) {
  if (due - Clock::now() > kSpinWindow) {
    std::this_thread::sleep_until(due - kSpinWindow);
  }
  while (Clock::now() < due) {
  }
}

double MedianOf(const std::vector<double>& v, size_t begin, size_t end) {
  return Median(std::vector<double>(
      v.begin() + static_cast<std::ptrdiff_t>(begin),
      v.begin() + static_cast<std::ptrdiff_t>(end)));
}

}  // namespace

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

OpenLoopResult RunOpenLoop(const std::vector<double>& schedule,
                           const ServeFn& serve, const DoneFn& done) {
  OpenLoopResult result;
  size_t n = schedule.size();
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  result.response_ms.resize(n);
  result.dispatch_wait_ms.resize(n);
  result.batch_ms.resize(n);
  const Clock::time_point start = Clock::now();
  auto due_at = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(schedule[i]));
  };
  size_t next = 0;
  while (next < n) {
    WaitUntil(due_at(next));
    const Clock::time_point now = Clock::now();
    if (done()) {
      // Admit no later arrivals; the ones already due are still served.
      size_t due = next;
      while (due < n && due_at(due) <= now) ++due;
      n = due;
    }
    size_t end = next + 1;
    while (end < n && due_at(end) <= now) ++end;
    Dispatch d;
    d.first = next;
    d.count = end - next;
    serve(d.count, &d.stamps);
    const double batch = Ms(d.stamps.ret - d.stamps.call);
    for (size_t i = next; i < end; ++i) {
      // Both terms from the same three instants, so they sum to the
      // response exactly (up to rounding).
      result.dispatch_wait_ms[i] = Ms(d.stamps.call - due_at(i));
      result.batch_ms[i] = batch;
      result.response_ms[i] = Ms(d.stamps.ret - due_at(i));
    }
    result.dispatches.push_back(d);
    next = end;
  }
  result.response_ms.resize(n);
  result.dispatch_wait_ms.resize(n);
  result.batch_ms.resize(n);
  if (!result.dispatches.empty()) {
    result.wall_s = std::chrono::duration<double>(
                        result.dispatches.back().stamps.ret - start)
                        .count();
  }
  result.overloaded = BacklogGrows(result.response_ms);
  return result;
}

DoneFn After(double seconds) {
  const Clock::time_point stop =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  return [stop] { return Clock::now() >= stop; };
}

ClosedLoopResult RunClosedLoop(size_t batch_size, const ServeFn& serve,
                               const DoneFn& done) {
  ClosedLoopResult result;
  const Clock::time_point start = Clock::now();
  while (!done()) {
    Dispatch d;
    d.first = result.queries;
    d.count = batch_size;
    serve(batch_size, &d.stamps);
    result.queries += batch_size;
    result.dispatches.push_back(d);
  }
  if (!result.dispatches.empty()) {
    result.wall_s = std::chrono::duration<double>(
                        result.dispatches.back().stamps.ret - start)
                        .count();
  }
  return result;
}

bool BacklogGrows(const std::vector<double>& response_ms) {
  const size_t n = response_ms.size();
  if (n < 8) return false;
  double first = MedianOf(response_ms, 0, n / 4);
  double last = MedianOf(response_ms, n - n / 4, n);
  return last > 2.0 * first + 1.0;
}

}  // namespace perfbench
