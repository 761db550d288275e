#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "workloads.h"

namespace perfbench {

struct Config {
  WorkloadSpec spec;
  uint64_t seed = 1;
  /// Measured time, split over the rounds: 40% closed loop, 30% each
  /// open-loop phase.
  double seconds = 10.0;
  /// Traced run: spans, queue-wait probes, per-layer replays, and the
  /// per_layer metrics instead of the end_to_end ones.
  bool trace = false;
  /// Fixed absolute offered rates of the two open-loop phases.
  double light_qps = 0.0;
  double heavy_qps = 0.0;
  /// Directory for the per-phase (and, traced, per-layer and span) JSON.
  std::string out_dir = ".";
};

/// Runs one invocation: set-up, reference, measured phases, checks.
/// Prints the result object as the last line of stdout and returns the
/// process exit code (nonzero on any failed or mismatched query).
int RunBenchmark(const Config& config);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
