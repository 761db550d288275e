#include "output_check.h"

#include <algorithm>
#include <numeric>

#include "sql/lint/engine.h"
#include "util/rng.h"

namespace perfbench {

namespace {

/// The rule ids of `diagnostics`, in order.
std::vector<std::string> RuleIds(
    const std::vector<querc::sql::lint::Diagnostic>& diagnostics) {
  std::vector<std::string> ids;
  ids.reserve(diagnostics.size());
  for (const auto& d : diagnostics) ids.push_back(d.rule_id);
  return ids;
}

}  // namespace

Reference Reference::ForStream(const querc::workload::Workload& stream,
                               querc::util::ThreadPool& pool) {
  Reference ref;
  ref.stream_ = &stream;
  ref.rule_ids_.resize(stream.size());
  const querc::sql::lint::LintEngine engine;
  pool.ParallelFor(querc::util::Lane::kBatch, stream.size(), [&](size_t i) {
    ref.rule_ids_[i] = RuleIds(
        engine.LintQuery(stream[i].text, 0, stream[i].dialect).diagnostics);
  });
  for (const auto& ids : ref.rule_ids_) ref.lint_diagnostics_ += ids.size();
  return ref;
}

void Reference::AddPredictions(
    const std::vector<std::shared_ptr<const querc::core::Classifier>>&
        classifiers,
    size_t sample_size, uint64_t seed, querc::util::ThreadPool& pool) {
  std::vector<size_t> positions(stream_->size());
  std::iota(positions.begin(), positions.end(), size_t{0});
  querc::util::Rng rng(seed);
  rng.Shuffle(positions);
  positions.resize(std::min(sample_size, positions.size()));
  std::vector<std::map<std::string, std::string>> predicted(positions.size());
  pool.ParallelFor(querc::util::Lane::kBatch, positions.size(),
                   [&](size_t k) {
    for (const auto& classifier : classifiers) {
      predicted[k][classifier->task_name()] =
          classifier->Predict((*stream_)[positions[k]]);
    }
  });
  for (size_t k = 0; k < positions.size(); ++k) {
    sampled_[positions[k]] = std::move(predicted[k]);
  }
}

std::string Reference::Check(const querc::core::ProcessedQuery& got,
                             size_t index) const {
  const querc::workload::LabeledQuery& sent = (*stream_)[index];
  if (got.query.text != sent.text || got.query.account != sent.account ||
      got.query.user != sent.user) {
    return "output is not the query sent at this position";
  }
  if (got.shed) return "shed at admission";
  if (!got.clean()) {
    if (!got.status.ok()) return "status " + got.status.ToString();
    return "degraded: deadline, sink failure, or a degraded/skipped task";
  }
  if (RuleIds(got.diagnostics) != rule_ids_[index]) {
    return "lint rule ids differ from LintEngine::LintQuery";
  }
  auto it = sampled_.find(index);
  if (it != sampled_.end() && got.predictions != it->second) {
    return "predictions differ from Classifier::Predict";
  }
  return {};
}

double Reference::label_accuracy() const {
  size_t correct = 0;
  size_t total = 0;
  for (const auto& [index, predictions] : sampled_) {
    const querc::workload::LabeledQuery& q = (*stream_)[index];
    for (const auto& [task, label] : predictions) {
      ++total;
      if ((task == "account" && label == q.account) ||
          (task == "user" && label == q.user)) {
        ++correct;
      }
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(correct) /
                                static_cast<double>(total);
}

}  // namespace perfbench
