#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "workload/workload.h"

namespace perfbench {

/// The benchmark's workloads (README.md gives the reason for each).
enum class WorkloadKind {
  kPaperMix,          ///< paper Table 2 tenant mix, cache-resident keys
  kLongTail,          ///< hundreds of small tenants, keys exceed the cache
  kRetrainUnderLoad,  ///< paper_mix served while the labelers retrain
};

struct WorkloadSpec {
  std::string name;
  WorkloadKind kind = WorkloadKind::kPaperMix;
  /// Retrain both labelers back to back while the measured phases run.
  bool retrain() const { return kind == WorkloadKind::kRetrainUnderLoad; }
};

/// The spec named `name`, or nullopt for an unknown name.
std::optional<WorkloadSpec> FindWorkload(const std::string& name);

/// What the service is trained on and what it then serves: one generation
/// from `seed`, split in time. The history is its earlier part and the
/// stream the later one, so the stream is new traffic from the same
/// tenants, not a replay of the history. (A stream generated from another
/// seed would be other tenants under the same names.)
struct Inputs {
  querc::workload::Workload history;
  querc::workload::Workload stream;
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// A sub-seed for one purpose (history, stream, a phase's schedule, the
/// output-check sample) derived from the workload seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t purpose);

/// Poisson arrivals at `rate_qps` over [0, seconds): exponential gaps
/// drawn from `seed`, as offsets in seconds from the phase start.
std::vector<double> PoissonSchedule(uint64_t seed, double rate_qps,
                                    double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
