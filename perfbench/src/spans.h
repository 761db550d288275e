#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Spans the benchmark records around each call it makes into a layer
/// (traced runs only). Kept in memory and written out when the run ends.
/// Thread-safe: the generator, the retrain loop and the queue-wait probe
/// all record.
class SpanRecorder {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;    ///< 0 = root
    uint64_t trace_id = 0;  ///< shared by the spans of one batch or cycle
    std::string name;
    int64_t start_ns = 0;   ///< since the recorder's epoch
    int64_t end_ns = 0;
  };

  /// Per span name: how many, their total duration, and their self time
  /// (duration minus the part of it that child spans cover).
  struct NameTotals {
    size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Pauses or resumes recording (the overhead measurement alternates).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// A fresh span id (ids are allocated before a span ends, so children
  /// can name their parent while it is still open).
  uint64_t NewId();

  /// Records the finished span `id`. A no-op when disabled.
  void Record(uint64_t id, uint64_t parent, uint64_t trace_id,
              const std::string& name, Clock::time_point start,
              Clock::time_point end);

  std::vector<Span> spans() const;
  std::map<std::string, NameTotals> Totals() const;

  /// Writes {"spans": [...], "totals": {...}} as JSON.
  void WriteJson(std::ostream& out) const;

 private:
  std::atomic<bool> enabled_;
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
