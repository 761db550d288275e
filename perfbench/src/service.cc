#include "service.h"

#include "embed/doc2vec.h"
#include "util/stopwatch.h"

namespace perfbench {

namespace {

using querc::core::QWorkerPool;
using querc::core::TrainingModule;

constexpr char kApplication[] = "perfbench";
constexpr char kEmbedderName[] = "doc2vec-dbow16";

}  // namespace

QWorkerPool::Options Service::PoolOptions() {
  QWorkerPool::Options options;
  options.application = kApplication;
  options.max_in_flight = kMaxInFlight;
  options.enable_tenant_admission = true;
  return options;
}

querc::util::StatusOr<std::unique_ptr<Service>> Service::Build(
    const Inputs& inputs, BuildTimes* times) {
  std::unique_ptr<Service> service(new Service());
  service->training_ =
      std::make_unique<TrainingModule>(TrainingModule::Options{});
  TrainingModule& training = *service->training_;
  training.ImportLogs(kApplication, inputs.history);

  querc::util::Stopwatch timer;
  querc::embed::Doc2VecEmbedder::Options embed_options;
  embed_options.dim = 16;
  embed_options.epochs = 5;
  embed_options.mode = querc::embed::Doc2VecEmbedder::Mode::kDbow;
  auto embedder =
      std::make_shared<querc::embed::Doc2VecEmbedder>(embed_options);
  QUERC_RETURN_IF_ERROR(
      querc::embed::TrainOnWorkload(*embedder, inputs.history));
  training.RegisterEmbedder(kEmbedderName, std::move(embedder));
  times->embedder_s = timer.ElapsedSeconds();

  service->pool_ =
      std::make_unique<QWorkerPool>(PoolOptions(), &training.thread_pool());
  service->pool_->set_database_sink([](const querc::workload::LabeledQuery&) {});
  service->pool_->set_training_sink([](const querc::core::ProcessedQuery&) {});

  service->jobs_ = {
      {"account", kApplication, kEmbedderName, querc::workload::AccountOf,
       nullptr},
      {"user", kApplication, kEmbedderName, querc::workload::UserOf, nullptr},
  };
  timer.Reset();
  QUERC_RETURN_IF_ERROR(service->TrainAndDeploy());
  times->train_and_deploy_s = timer.ElapsedSeconds();
  return service;
}

querc::util::Status Service::TrainAndDeploy() {
  return training_->TrainAndDeploy(jobs_, *pool_);
}

std::shared_ptr<const querc::embed::Embedder> Service::embedder() const {
  return training_->Embedder(kEmbedderName);
}

std::vector<std::shared_ptr<const querc::core::Classifier>>
Service::Deployed() const {
  std::vector<std::shared_ptr<const querc::core::Classifier>> out;
  for (const auto& [task, classifier] : *pool_->shard(0).classifiers()) {
    out.push_back(classifier);
  }
  return out;
}

}  // namespace perfbench
