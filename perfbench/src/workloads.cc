#include "workloads.h"

#include <cmath>

#include "util/rng.h"
#include "workload/snowflake_gen.h"

namespace perfbench {

namespace {

using querc::workload::SnowflakeGenerator;

constexpr uint64_t kGeneratorPurpose = 1;

// long_tail shape: many small tenants, each with a large template
// repertoire and private per-user templates, so the stream's distinct
// embedding keys per shard are several times a shard's cache.
constexpr int kLongTailAccounts = 400;
constexpr int kLongTailUsersPerAccount = 3;
constexpr int kLongTailTemplatesPerAccount = 100;
constexpr int kLongTailTemplatesPerUser = 40;
constexpr int kLongTailPrivatePerUser = 8;
constexpr int kLongTailHistoryPerAccount = 10;
constexpr int kLongTailStreamPerAccount = 150;

/// paper_mix: Table 2's tenants at 1.5x their query counts, so one
/// generation holds a history of half the table's size and a stream of
/// the full size. The smaller history keeps a retrain cycle to about a
/// second, so each measured phase of retrain_under_load spans a cycle.
std::vector<SnowflakeGenerator::AccountSpec> PaperMixAccounts() {
  std::vector<SnowflakeGenerator::AccountSpec> specs =
      SnowflakeGenerator::Table2Accounts();
  for (auto& spec : specs) spec.num_queries = spec.num_queries * 3 / 2;
  return specs;
}

std::vector<SnowflakeGenerator::AccountSpec> LongTailAccounts(
    int queries_per_account) {
  std::vector<SnowflakeGenerator::AccountSpec> specs;
  specs.reserve(kLongTailAccounts);
  for (int i = 0; i < kLongTailAccounts; ++i) {
    SnowflakeGenerator::AccountSpec spec;
    spec.name = "tail" + std::to_string(i);
    spec.num_users = kLongTailUsersPerAccount;
    spec.num_queries = queries_per_account;
    spec.shared_query_rate = 0.0;
    spec.shared_table_fraction = 0.8;
    spec.templates_per_account = kLongTailTemplatesPerAccount;
    spec.templates_per_user = kLongTailTemplatesPerUser;
    spec.private_templates_per_user = kLongTailPrivatePerUser;
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// One generation split in time: the first `history_share` of the
/// queries (the generator emits them in timestamp order) is the history,
/// the rest is the stream.
Inputs SplitGeneration(std::vector<SnowflakeGenerator::AccountSpec> accounts,
                       uint64_t seed, double history_share) {
  SnowflakeGenerator::Options options;
  options.seed = seed;
  options.accounts = std::move(accounts);
  std::vector<querc::workload::LabeledQuery> all =
      SnowflakeGenerator(options).Generate().queries();
  auto cut = all.begin() + static_cast<std::ptrdiff_t>(
                               history_share * static_cast<double>(all.size()));
  Inputs inputs;
  inputs.history = querc::workload::Workload({all.begin(), cut});
  inputs.stream = querc::workload::Workload({cut, all.end()});
  return inputs;
}

}  // namespace

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  if (name == "paper_mix") {
    return WorkloadSpec{name, WorkloadKind::kPaperMix};
  }
  if (name == "long_tail") {
    return WorkloadSpec{name, WorkloadKind::kLongTail};
  }
  if (name == "retrain_under_load") {
    return WorkloadSpec{name, WorkloadKind::kRetrainUnderLoad};
  }
  return std::nullopt;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t purpose) {
  // One SplitMix64 step over the pair: distinct purposes give unrelated
  // streams, and the same (seed, purpose) always gives the same one.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + purpose * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  uint64_t generator_seed = DeriveSeed(seed, kGeneratorPurpose);
  if (spec.kind == WorkloadKind::kLongTail) {
    constexpr int kPerAccount =
        kLongTailHistoryPerAccount + kLongTailStreamPerAccount;
    return SplitGeneration(LongTailAccounts(kPerAccount), generator_seed,
                           static_cast<double>(kLongTailHistoryPerAccount) /
                               kPerAccount);
  }
  return SplitGeneration(PaperMixAccounts(), generator_seed, 1.0 / 3.0);
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate_qps,
                                    double seconds) {
  std::vector<double> arrivals;
  if (rate_qps <= 0.0 || seconds <= 0.0) return arrivals;
  arrivals.reserve(static_cast<size_t>(rate_qps * seconds * 1.1) + 16);
  querc::util::Rng rng(seed);
  double t = 0.0;
  for (;;) {
    // Inverse-CDF exponential gap; 1 - U is in (0, 1], so the log is
    // finite.
    t += -std::log(1.0 - rng.UniformDouble()) / rate_qps;
    if (t >= seconds) break;
    arrivals.push_back(t);
  }
  return arrivals;
}

}  // namespace perfbench
