#ifndef PERFBENCH_SERVICE_H_
#define PERFBENCH_SERVICE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "querc/qworker_pool.h"
#include "querc/training_module.h"
#include "util/status.h"
#include "util/statusor.h"
#include "workloads.h"

namespace perfbench {

/// Above the largest batch the benchmark hands over, so admission runs both
/// stages on every batch and sheds nothing from a correct program.
inline constexpr size_t kMaxInFlight = size_t{1} << 20;

/// The Figure 1 service as the benchmark builds it for every workload: a
/// TrainingModule holding the imported history and a Doc2Vec PV-DBOW
/// embedder (dim 16, as `querc stats` uses), an `account` and a `user`
/// labeler trained and deployed by TrainAndDeploy onto a default
/// QWorkerPool (4 shards, by-account, 4096-entry cache per shard) that
/// shares the module's thread pool, with tenant admission on and no
/// quotas. Both sinks are installed as no-ops, so the sink stages run
/// without feeding served queries back into the training set.
class Service {
 public:
  /// Wall times of the build steps, in seconds.
  struct BuildTimes {
    double embedder_s = 0.0;
    double train_and_deploy_s = 0.0;
  };

  /// Builds the service on `inputs.history`; the stream is not touched.
  static querc::util::StatusOr<std::unique_ptr<Service>> Build(
      const Inputs& inputs, BuildTimes* times);

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  querc::core::TrainingModule& training() { return *training_; }
  querc::core::QWorkerPool& pool() { return *pool_; }
  querc::util::ThreadPool& thread_pool() { return training_->thread_pool(); }

  /// One retrain cycle: both labelers trained on the fixed imported
  /// history and redeployed to every shard in one DeployAll.
  querc::util::Status TrainAndDeploy();

  /// The shared embedder every labeler uses.
  std::shared_ptr<const querc::embed::Embedder> embedder() const;

  /// The classifiers the shards serve right now (task order).
  std::vector<std::shared_ptr<const querc::core::Classifier>> Deployed()
      const;

  /// The pool's options, for a benchmark-owned replay of its admission
  /// controller.
  static querc::core::QWorkerPool::Options PoolOptions();

 private:
  Service() = default;

  // The training module owns the thread pool the QWorkerPool shares, so
  // it is declared first and destroyed last.
  std::unique_ptr<querc::core::TrainingModule> training_;
  std::unique_ptr<querc::core::QWorkerPool> pool_;
  std::vector<querc::core::TrainingModule::TrainJob> jobs_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVICE_H_
