// The benchmark's workloads. Each runs in its own process: generate the
// inputs from the seed (untimed), set up through a public load path
// (timed, repeated), one cold pass over the operation list, a closed loop
// of warm passes for the requested seconds, then the correctness gate.
#ifndef TPDB_PERFBENCH_WORKLOADS_H_
#define TPDB_PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "harness.h"

namespace perfbench {

struct Outcome {
  Report report;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Fewest cold passes per run (each on a freshly set-up database).
inline constexpr int kColdPasses = 7;

/// Share trimmed from each end when set-up times, cold passes and warm
/// passes are summarised (Samples::TrimmedMean).
inline constexpr double kTrim = 0.1;

/// The paper's experiment: WebKit and Meteo pairs, every outer/anti join
/// kind and the three set operations, in process at default parallelism.
bool RunPaperJoins(const RunConfig& config, Outcome* out);

/// Zipf-2.5 keys: long negating chains, OrAll groups, probability filters
/// and top-k by probability — lineage interning and evaluation dominate.
bool RunSkewLineage(const RunConfig& config, Outcome* out);

/// Snapshot restore + armed WAL, served over loopback to one connection:
/// scans and top-k interleaved with fsynced appends and compactions.
bool RunColdRw(const RunConfig& config, Outcome* out);

}  // namespace perfbench

#endif  // TPDB_PERFBENCH_WORKLOADS_H_
