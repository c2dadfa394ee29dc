// Shared plumbing of the tpdb benchmark: timing, exact quantiles, the
// metric report, the in-memory span recorder of traced runs, deltas of the
// engine's obs:: counters, and the host block.
#ifndef TPDB_PERFBENCH_HARNESS_H_
#define TPDB_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/database.h"
#include "exec/session.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Parsed command line of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir;  ///< scratch directory for snapshot and WAL
  std::string commit;    ///< source identity passed in by run.py
};

/// Latency samples with exact (sorted, linearly interpolated) quantiles.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t count() const { return values_.size(); }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Mean() const;
  /// Mean of the samples left after dropping the lowest and the highest
  /// `trim` share by rank. The summary of repeated timings: the host's
  /// speed shifts in phases of about a second, so the samples of a run
  /// form clusters and their median jumps between them from run to run,
  /// while the trimmed mean moves only with the clusters' weights (and
  /// ignores the odd stall).
  double TrimmedMean(double trim) const;
  double Sum() const;

 private:
  std::vector<double> values_;
};

/// Ordered name → (value, unit) list: the "metrics" object of the result.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Human-readable "name = value unit" lines, then the result object on
  /// one line (the last line of the run's standard output).
  void Print(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Spans recorded around the benchmark's calls into each layer (traced
/// runs only). Kept in memory; WriteJson dumps them at the end. One
/// recorder per client thread — not thread-safe.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int64_t parent = -1;  ///< index into spans(), -1 for a root
    uint64_t request = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  bool enabled() const { return enabled_; }

  /// Starts a root span under a fresh request id (returns its index).
  int64_t BeginRequest(const std::string& name);
  /// Starts a child of the innermost open span.
  int64_t Begin(const std::string& name);
  void End(int64_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: total duration and self time (duration minus the part
  /// of the interval its direct children cover), in microseconds.
  struct Totals {
    double total_us = 0.0;
    double self_us = 0.0;
    uint64_t count = 0;
  };
  std::map<std::string, Totals> Aggregate(size_t first_span = 0) const;

  /// Writes {"spans":[{name,start_us,end_us,parent,request}...]}.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
  uint64_t next_request_ = 1;
};

/// Writes the spans next to the run's data directory, as
/// trace-<workload>-seed<seed>.json (the data directory itself is removed
/// when the run ends).
void WriteTrace(const Tracer& tracer, const RunConfig& config);

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, bool request = false)
      : tracer_(tracer->enabled() ? tracer : nullptr) {
    if (tracer_ != nullptr)
      index_ = request ? tracer_->BeginRequest(name) : tracer_->Begin(name);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t index_ = -1;
};

/// Point-in-time reading of the engine's obs:: counters and histogram
/// (count, sum) pairs; Delta() subtracts an earlier reading.
struct CounterReading {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> histograms;

  static CounterReading Take();
  CounterReading Delta(const CounterReading& before) const;
  /// Adds another reading (e.g. a delta) to this one, name by name.
  void Add(const CounterReading& other);
  double Counter(const std::string& name) const;
  /// Histogram sum ÷ count (0 when nothing was recorded).
  double HistogramMean(const std::string& name) const;
  double HistogramSum(const std::string& name) const;
};

/// The lineage layer's counter ratios over one cold pass:
/// lineage.memo_hit_ratio, lineage.shannon_expansions and
/// lineage.compile_reuse_ratio.
void ReportLineageCounters(const CounterReading& cold_pass, Report* report);

/// Metrics of layers a workload does not reach: reported as 0 in their
/// declared unit, so every run prints every per-layer metric.
void ReportNotReached(
    const std::vector<std::pair<std::string, std::string>>& names_units,
    Report* report);

/// Thread counts per role, checked against nproc before any work starts.
/// A workload has two phases that never overlap: serving a request (the
/// client's request occupies exec_workers_per_query pool threads, plus the
/// server's reactor) and compacting, which spreads over compaction_workers
/// pool threads while the client waits for it without running anything.
struct ThreadPlan {
  int client = 1;
  int exec_workers_per_query = 1;
  int server_reactor = 0;
  int compaction_workers = 0;
  int busy() const {
    const int serving = client * exec_workers_per_query + server_reactor;
    return serving > compaction_workers ? serving : compaction_workers;
  }
};

/// Prints the host block (one "host: {...}" line) and returns false when
/// the plan needs more busy threads than the host has cores.
bool PrintHostBlock(const RunConfig& config, const ThreadPlan& threads,
                    const std::string& fsync_policy);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Size of a file in bytes (0 when missing).
uint64_t FileBytes(const std::string& path);

/// Reads every row's `_prob` (the exact tuple probability) and returns
/// their sum, so the reads cannot be elided.
double ReadAllProbabilities(const tpdb::TPRelation& rel);

/// The work of Session::Query on `text` split into the planner's public
/// steps, with a span around each under the innermost open span:
/// api.parse (TPDatabase::Plan), api.lower (Planner::Lower), api.execute
/// (Planner::Execute, which lowers again) and lineage.prob (every row's
/// _prob read). So Planner::Execute minus lowering is execute - lower, and
/// the api layer's own time is parse + execute.
tpdb::StatusOr<tpdb::TPRelation> TracedQuery(
    tpdb::TPDatabase* db, const tpdb::SessionOptions& options,
    const std::string& text, Tracer* tracer);

/// Aborts the run (exit code 2, no result line) on a setup error.
void CheckOk(const tpdb::Status& status, const std::string& what);

}  // namespace perfbench

#endif  // TPDB_PERFBENCH_HARNESS_H_
