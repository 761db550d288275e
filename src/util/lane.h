#ifndef QUERC_UTIL_LANE_H_
#define QUERC_UTIL_LANE_H_

#include <cstddef>
#include <cstdint>

namespace querc::util {

/// Scheduling lane of a ThreadPool task (DESIGN.md §17). Lanes are strict
/// priorities with a starvation bound: interactive work (QWorker predict
/// fan-out) always runs before normal work, which runs before batch work
/// (training, advising, summarization) — except that a bounded number of
/// consecutive higher-lane dispatches forces one lower-lane dispatch so
/// batch work cannot starve outright.
///
/// Kept in its own header (no dependencies) so code that only names a
/// lane need not pull in the full thread-pool machinery.
enum class Lane : uint8_t {
  kInteractive = 0,  ///< latency-sensitive predict traffic
  kNormal = 1,       ///< default for unclassified work
  kBatch = 2,        ///< train / advise / summarize churn
};

inline constexpr size_t kNumLanes = 3;

/// Stable lowercase name ("interactive", "normal", "batch") — the `lane`
/// label value on the per-lane ThreadPool metrics.
constexpr const char* LaneName(Lane lane) {
  switch (lane) {
    case Lane::kInteractive:
      return "interactive";
    case Lane::kNormal:
      return "normal";
    case Lane::kBatch:
      return "batch";
  }
  return "?";
}

}  // namespace querc::util

#endif  // QUERC_UTIL_LANE_H_
