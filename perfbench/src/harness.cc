#include "harness.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "api/planner.h"
#include "obs/metrics.h"

namespace perfbench {

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

double Samples::TrimmedMean(double trim) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const auto drop = static_cast<size_t>(
      std::floor(trim * static_cast<double>(sorted.size())));
  double sum = 0.0;
  for (size_t i = drop; i < sorted.size() - drop; ++i) sum += sorted[i];
  return sum / static_cast<double>(sorted.size() - 2 * drop);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

void Report::Print(bool correct, uint64_t attempted, uint64_t failed) const {
  for (const Entry& e : entries_)
    std::printf("%-34s %.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    const double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) json += ", ";
    json += "\"" + entries_[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int64_t Tracer::BeginRequest(const std::string& name) {
  Span span;
  span.name = name;
  span.start_us = std::chrono::duration<double, std::micro>(Clock::now() -
                                                            origin_)
                      .count();
  span.request = next_request_++;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int64_t>(spans_.size() - 1));
  return open_.back();
}

int64_t Tracer::Begin(const std::string& name) {
  Span span;
  span.name = name;
  span.start_us = std::chrono::duration<double, std::micro>(Clock::now() -
                                                            origin_)
                      .count();
  if (!open_.empty()) {
    span.parent = open_.back();
    span.request = spans_[static_cast<size_t>(open_.back())].request;
  } else {
    span.request = next_request_++;
  }
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int64_t>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int64_t index) {
  spans_[static_cast<size_t>(index)].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
  // Spans close innermost-first (RAII), so the index is on top.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::Aggregate(
    size_t first_span) const {
  // Children are recorded sequentially inside their parent on one thread,
  // so they never overlap each other: covered time is their sum.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      covered[static_cast<size_t>(s.parent)] += s.end_us - s.start_us;
  std::map<std::string, Totals> out;
  for (size_t i = first_span; i < spans_.size(); ++i) {
    const double duration = spans_[i].end_us - spans_[i].start_us;
    Totals& t = out[spans_[i].name];
    t.total_us += duration;
    t.self_us += duration - covered[i];
    t.count += 1;
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"parent\": %lld, \"request\": %llu}%s\n",
                 s.name.c_str(), s.start_us, s.end_us,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void WriteTrace(const Tracer& tracer, const RunConfig& config) {
  const std::string path = config.data_dir + "/../trace-" + config.workload +
                           "-seed" + std::to_string(config.seed) + ".json";
  if (!tracer.WriteJson(path))
    std::fprintf(stderr, "could not write %s\n", path.c_str());
}

CounterReading CounterReading::Take() {
  tpdb::obs::MetricsRegistry& registry = tpdb::obs::MetricsRegistry::Default();
  CounterReading out;
  for (const auto& info : registry.List()) {
    const std::string kind = info.kind;
    if (kind == "counter") {
      out.counters[info.name] = static_cast<double>(
          registry.counter(info.name, info.subsystem, info.help)->Value());
    } else if (kind == "histogram") {
      const tpdb::obs::HistogramData data =
          registry.histogram(info.name, info.subsystem, info.help)->Snapshot();
      out.histograms[info.name] = {static_cast<double>(data.count),
                                   static_cast<double>(data.sum)};
    }
  }
  return out;
}

CounterReading CounterReading::Delta(const CounterReading& before) const {
  CounterReading out = *this;
  for (auto& [name, value] : out.counters) {
    auto it = before.counters.find(name);
    if (it != before.counters.end()) value -= it->second;
  }
  for (auto& [name, value] : out.histograms) {
    auto it = before.histograms.find(name);
    if (it == before.histograms.end()) continue;
    value.first -= it->second.first;
    value.second -= it->second.second;
  }
  return out;
}

void CounterReading::Add(const CounterReading& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, value] : other.histograms) {
    histograms[name].first += value.first;
    histograms[name].second += value.second;
  }
}

double CounterReading::Counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

double CounterReading::HistogramMean(const std::string& name) const {
  auto it = histograms.find(name);
  if (it == histograms.end() || it->second.first <= 0.0) return 0.0;
  return it->second.second / it->second.first;
}

double CounterReading::HistogramSum(const std::string& name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? 0.0 : it->second.second;
}

void ReportLineageCounters(const CounterReading& d, Report* report) {
  const double evals = d.Counter("tpdb_prob_evals_total");
  report->Set("lineage.memo_hit_ratio",
              evals > 0 ? d.Counter("tpdb_prob_dag_memo_hits_total") / evals
                        : 0.0,
              "hits/eval");
  report->Set("lineage.shannon_expansions",
              d.Counter("tpdb_prob_shannon_expansions_total"), "count/pass");
  const double reuse = d.Counter("tpdb_prob_compile_reuse_hits_total");
  const double compiled = d.Counter("tpdb_prob_compile_nodes_total");
  report->Set("lineage.compile_reuse_ratio",
              reuse + compiled > 0 ? reuse / (reuse + compiled) : 0.0,
              "ratio");
}

void ReportNotReached(
    const std::vector<std::pair<std::string, std::string>>& names_units,
    Report* report) {
  for (const auto& [name, unit] : names_units) report->Set(name, 0.0, unit);
}

namespace {

std::string FilesystemName(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x9123683EUL: return "btrfs";
    case 0x58465342UL: return "xfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

}  // namespace

bool PrintHostBlock(const RunConfig& config, const ThreadPlan& threads,
                    const std::string& fsync_policy) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf(
      "host: {\"nproc\": %ld, \"threads\": {\"client\": %d, "
      "\"exec_workers_per_query\": %d, \"server_reactor\": %d, "
      "\"compaction_workers\": %d, \"busy_max\": %d}, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"commit\": \"%s\", "
      "\"data_dir_fs\": \"%s\", \"durability\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.3g, "
      "\"trace\": %d}\n",
      nproc, threads.client, threads.exec_workers_per_query,
      threads.server_reactor, threads.compaction_workers, threads.busy(),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, config.commit.c_str(),
      FilesystemName(config.data_dir).c_str(), fsync_policy.c_str(),
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0);
  std::fflush(stdout);
  if (threads.busy() > nproc) {
    std::fprintf(stderr,
                 "refusing to run: %d busy threads planned on %ld cores\n",
                 threads.busy(), nproc);
    return false;
  }
  return true;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

double ReadAllProbabilities(const tpdb::TPRelation& rel) {
  double sum = 0.0;
  for (size_t i = 0; i < rel.size(); ++i) sum += rel.Probability(i);
  return sum;
}

tpdb::StatusOr<tpdb::TPRelation> TracedQuery(
    tpdb::TPDatabase* db, const tpdb::SessionOptions& options,
    const std::string& text, Tracer* tracer) {
  tpdb::StatusOr<tpdb::LogicalPlan> plan = [&] {
    ScopedSpan span(tracer, "api.parse");
    return db->Plan(text);
  }();
  if (!plan.ok()) return plan.status();
  {
    ScopedSpan span(tracer, "api.lower");
    tpdb::StatusOr<tpdb::PhysicalPlan> lowered =
        tpdb::Planner(db, options).Lower(*plan);
    if (!lowered.ok()) return lowered.status();
  }
  tpdb::StatusOr<tpdb::TPRelation> result = [&] {
    ScopedSpan span(tracer, "api.execute");
    return tpdb::Planner(db, options).Execute(*plan);
  }();
  if (!result.ok()) return result;
  ScopedSpan span(tracer, "lineage.prob");
  ReadAllProbabilities(*result);
  return result;
}

void CheckOk(const tpdb::Status& status, const std::string& what) {
  if (status.ok()) return;
  std::fprintf(stderr, "setup failed: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

}  // namespace perfbench
