// tpdb_perfbench: runs one workload of the tpdb benchmark and prints its
// metrics. Normally started by perfbench/run.py, which builds it first:
//
//   tpdb_perfbench --workload paper_joins|skew_lineage|cold_rw --seed N
//                  --seconds S --trace 0|1 --data-dir DIR [--commit ID]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the recorded spans next to DIR). The last line of standard
// output is the result object; the exit code is 1 when the correctness
// gate found a wrong output and 2 on a usage or set-up error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: tpdb_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --data-dir DIR [--commit ID]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--data-dir") {
      config.data_dir = value;
    } else if (flag == "--commit") {
      config.commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (config.data_dir.empty()) return Usage("--data-dir is required");
  if (!(config.seconds > 0.0)) return Usage("--seconds must be positive");

  perfbench::Outcome outcome;
  bool ran = false;
  if (config.workload == "paper_joins") {
    ran = perfbench::RunPaperJoins(config, &outcome);
  } else if (config.workload == "skew_lineage") {
    ran = perfbench::RunSkewLineage(config, &outcome);
  } else if (config.workload == "cold_rw") {
    ran = perfbench::RunColdRw(config, &outcome);
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }
  if (!ran) return 2;
  outcome.report.Print(outcome.correct, outcome.attempted, outcome.failed);
  return outcome.correct ? 0 : 1;
}
