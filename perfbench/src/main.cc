// querc_perfbench: the Querc service benchmark (see ../README.md).
//
//   querc_perfbench --workload paper_mix --seed 1 --seconds 24 --trace 0
//       --rates paper_mix=1000/2500,long_tail=250/500 --out-dir DIR
//
// Prints a progress summary on stderr and, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}. Exits 1 when
// any query fails or mismatches the uncached reference, 2 on bad usage.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "runner.h"

namespace {

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "querc_perfbench: %s\n"
               "usage: querc_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --rates NAME=LIGHT/HEAVY[,...] [--out-dir DIR]\n",
               why.c_str());
  return 2;
}

bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size();
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage("unexpected argument " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");

  perfbench::Config config;
  auto spec = perfbench::FindWorkload(args["workload"]);
  if (!spec) return Usage("unknown workload '" + args["workload"] + "'");
  config.spec = *spec;

  double number = 0.0;
  if (!ParseNumber(args["seed"], &number) || number < 0) {
    return Usage("--seed must be a non-negative number");
  }
  config.seed = static_cast<uint64_t>(number);
  if (!ParseNumber(args["seconds"], &number) || number <= 0) {
    return Usage("--seconds must be positive");
  }
  config.seconds = number;
  if (args["trace"] != "0" && args["trace"] != "1") {
    return Usage("--trace must be 0 or 1");
  }
  config.trace = args["trace"] == "1";
  if (args.count("out-dir")) config.out_dir = args["out-dir"];

  // --rates holds the fixed open-loop rates of every workload; pick ours.
  const std::string& rates = args["rates"];
  size_t pos = 0;
  bool found = false;
  while (pos < rates.size()) {
    size_t comma = rates.find(',', pos);
    if (comma == std::string::npos) comma = rates.size();
    std::string item = rates.substr(pos, comma - pos);
    pos = comma + 1;
    size_t eq = item.find('=');
    size_t slash = item.find('/');
    if (eq == std::string::npos || slash == std::string::npos || slash < eq) {
      return Usage("bad --rates item '" + item + "'");
    }
    if (item.substr(0, eq) != config.spec.name) continue;
    if (!ParseNumber(item.substr(eq + 1, slash - eq - 1), &config.light_qps) ||
        !ParseNumber(item.substr(slash + 1), &config.heavy_qps) ||
        config.light_qps <= 0 || config.heavy_qps <= 0) {
      return Usage("bad --rates item '" + item + "'");
    }
    found = true;
  }
  if (!found) return Usage("--rates has no rates for " + config.spec.name);

  return perfbench::RunBenchmark(config);
}
