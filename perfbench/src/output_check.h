#ifndef PERFBENCH_OUTPUT_CHECK_H_
#define PERFBENCH_OUTPUT_CHECK_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "querc/classifier.h"
#include "querc/qworker.h"
#include "util/thread_pool.h"
#include "workload/workload.h"

namespace perfbench {

/// Uncached reference outputs for the stream, computed outside the
/// service: lint rule ids from a direct LintEngine::LintQuery for every
/// stream position, and each task's Classifier::Predict for a seeded
/// sample of positions. Every query the service returns is compared
/// against it (see Check).
class Reference {
 public:
  /// Lints every stream query with a fresh default LintEngine (the
  /// configuration every QWorker runs). Parallel over `pool`.
  static Reference ForStream(const querc::workload::Workload& stream,
                             querc::util::ThreadPool& pool);

  /// Adds `sample_size` seeded positions (all of them when the stream is
  /// smaller) with each classifier's uncached Predict. Parallel over
  /// `pool` on its batch lane.
  void AddPredictions(
      const std::vector<std::shared_ptr<const querc::core::Classifier>>&
          classifiers,
      size_t sample_size, uint64_t seed, querc::util::ThreadPool& pool);

  /// Why `got`, served for stream position `index`, fails: it carries
  /// another query (text, account or user differ), it was shed, it is not
  /// clean (non-OK status, degraded or skipped task, deadline), its
  /// lint rule ids differ from the reference, or — at a sampled position
  /// — a prediction differs from Classifier::Predict. Empty when it
  /// passes.
  std::string Check(const querc::core::ProcessedQuery& got,
                    size_t index) const;

  /// Diagnostics over one pass of the stream.
  size_t lint_diagnostics() const { return lint_diagnostics_; }
  size_t sample_size() const { return sampled_.size(); }
  /// Share of the sample's predictions equal to the generator's true
  /// label (task "account" vs LabeledQuery::account, "user" vs user);
  /// base = sample size x tasks.
  double label_accuracy() const;

 private:
  const querc::workload::Workload* stream_ = nullptr;
  std::vector<std::vector<std::string>> rule_ids_;  // per position
  size_t lint_diagnostics_ = 0;
  /// Sampled position -> task -> uncached prediction.
  std::map<size_t, std::map<std::string, std::string>> sampled_;
};

}  // namespace perfbench

#endif  // PERFBENCH_OUTPUT_CHECK_H_
