// The two in-process workloads, paper_joins and skew_lineage. They share
// one code path: relations staged from a generator, loaded into a fresh
// database through batched Append, a fixed list of query texts run through
// Session (every result row's _prob read), and a reference-evaluator gate.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "common/random.h"
#include "datasets/generator.h"
#include "datasets/meteo.h"
#include "datasets/webkit.h"
#include "exec/session.h"
#include "exec/thread_pool.h"
#include "gate.h"
#include "lineage/probability.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tpdb::JoinCondition;
using tpdb::Session;
using tpdb::SessionOptions;
using tpdb::StatusOr;
using tpdb::TPDatabase;
using tpdb::TPJoinKind;
using tpdb::TPRelation;
using tpdb::TPSetOpKind;

/// A generated relation, held as Append batches so each set-up repetition
/// loads the same rows through the public path.
struct StagedRelation {
  std::string name;
  tpdb::Schema schema;
  std::vector<std::vector<TPDatabase::AppendRow>> batches;
  size_t rows = 0;
};

/// Two relations joined by the workload's queries.
struct JoinPair {
  std::string r;
  std::string s;
  std::string on;             ///< the SQL `ON` column
  JoinCondition theta;        ///< the same θ for the reference evaluator
  JoinCondition paper_theta;  ///< the dataset's θ, for TPDatabase::Join
};

enum class OpKind { kJoin, kSetOp, kProbFilter, kTopK, kGroupBy };

struct Op {
  std::string label;
  std::string text;
  OpKind kind = OpKind::kJoin;
  size_t pair = 0;
  TPJoinKind join = TPJoinKind::kInner;
  TPSetOpKind set_op = TPSetOpKind::kUnion;
  /// kProbFilter / kTopK / kGroupBy: the unfiltered join the result is
  /// checked against, plus the filter's threshold or the top-k size.
  std::string base_text;
  double min_prob = 0.0;
  size_t k = 0;
};

/// Set-ups per round of the warm loop: set-up is cheap in process, and
/// each one adds a few hundred Append samples.
constexpr int kSetUpsPerRound = 3;

struct Spec {
  std::vector<StagedRelation> relations;
  std::vector<JoinPair> pairs;
  std::vector<Op> ops;
  /// Time points sampled per join / set-op query by the gate.
  int gate_time_points = 3;
};

StagedRelation Stage(const TPRelation& rel, size_t batch_rows) {
  StagedRelation out;
  out.name = rel.name();
  out.schema = rel.fact_schema();
  out.rows = rel.size();
  tpdb::LineageManager* manager = rel.manager();
  for (size_t i = 0; i < rel.size(); ++i) {
    if (i % batch_rows == 0) out.batches.emplace_back();
    const tpdb::TPTuple& t = rel.tuple(i);
    TPDatabase::AppendRow row;
    row.fact = t.fact;
    row.interval = t.interval;
    row.prob = manager->VariableProbability(manager->VarOf(t.lineage));
    out.batches.back().push_back(std::move(row));
  }
  return out;
}

const char* JoinSql(TPJoinKind kind) {
  switch (kind) {
    case TPJoinKind::kInner: return "INNER";
    case TPJoinKind::kLeftOuter: return "LEFT";
    case TPJoinKind::kRightOuter: return "RIGHT";
    case TPJoinKind::kFullOuter: return "FULL";
    case TPJoinKind::kAnti: return "ANTI";
    case TPJoinKind::kSemi: return "SEMI";
  }
  return "INNER";
}

const char* JoinLabel(TPJoinKind kind) {
  switch (kind) {
    case TPJoinKind::kInner: return "inner";
    case TPJoinKind::kLeftOuter: return "left";
    case TPJoinKind::kRightOuter: return "right";
    case TPJoinKind::kFullOuter: return "full";
    case TPJoinKind::kAnti: return "anti";
    case TPJoinKind::kSemi: return "semi";
  }
  return "inner";
}

constexpr TPJoinKind kJoinKinds[] = {
    TPJoinKind::kInner, TPJoinKind::kLeftOuter, TPJoinKind::kRightOuter,
    TPJoinKind::kFullOuter, TPJoinKind::kAnti};

Op JoinOp(const std::string& dataset, size_t pair, const JoinPair& p,
          TPJoinKind kind) {
  Op op;
  op.label = dataset + "." + JoinLabel(kind);
  op.text = "SELECT * FROM " + p.r + " " + JoinSql(kind) + " JOIN " + p.s +
            " ON " + p.on;
  op.kind = OpKind::kJoin;
  op.pair = pair;
  op.join = kind;
  return op;
}

// -- Workload definitions --------------------------------------------------

/// Sizes are per relation; the pair of each dataset is generated with a
/// seed derived from the run's seed.
constexpr int64_t kWebkitTuples = 8000;
constexpr int64_t kMeteoTuples = 3000;
constexpr int64_t kSkewTuples = 6000;

Spec PaperJoinsSpec(uint64_t seed) {
  Spec spec;
  tpdb::LineageManager staging;
  tpdb::WebkitOptions webkit;
  webkit.seed = seed * 2 + 1;
  webkit.num_tuples = kWebkitTuples;
  StatusOr<tpdb::WebkitDataset> w = MakeWebkitDataset(&staging, webkit);
  CheckOk(w.status(), "generate webkit");
  tpdb::MeteoOptions meteo;
  meteo.seed = seed * 2 + 2;
  meteo.num_tuples = kMeteoTuples;
  StatusOr<tpdb::MeteoDataset> m = MakeMeteoDataset(&staging, meteo);
  CheckOk(m.status(), "generate meteo");

  // Set-up appends 1024 rows per call: ~330 calls over the repetitions.
  for (const TPRelation* rel : {&w->r, &w->s, &m->r, &m->s})
    spec.relations.push_back(Stage(*rel, 1024));
  spec.pairs.push_back({w->r.name(), w->s.name(), "file",
                        JoinCondition::Equals("file"), w->theta});
  spec.pairs.push_back({m->r.name(), m->s.name(), "metric",
                        JoinCondition::Equals("metric"), m->theta});
  const char* datasets[] = {"webkit", "meteo"};
  for (size_t p = 0; p < spec.pairs.size(); ++p) {
    const JoinPair& pair = spec.pairs[p];
    for (const TPJoinKind kind : kJoinKinds)
      spec.ops.push_back(JoinOp(datasets[p], p, pair, kind));
    const std::pair<TPSetOpKind, const char*> set_ops[] = {
        {TPSetOpKind::kUnion, "UNION"},
        {TPSetOpKind::kIntersect, "INTERSECT"},
        {TPSetOpKind::kDifference, "EXCEPT"}};
    for (const auto& [kind, sql] : set_ops) {
      Op op;
      op.label = std::string(datasets[p]) + "." + sql;
      op.text = "SELECT * FROM " + pair.r + " " + sql + " " + pair.s;
      op.kind = OpKind::kSetOp;
      op.pair = p;
      op.set_op = kind;
      spec.ops.push_back(std::move(op));
    }
  }
  return spec;
}

/// One side of the skewed pair: keys 0..7 own Zipf-2.5 shares of the
/// tuples (the counts are fixed, so every seed has the same group sizes)
/// and each key's tuples form one chain starting at time 0 on both sides
/// (the seed varies durations, gaps and probabilities).
StatusOr<TPRelation> MakeSkewRelation(tpdb::LineageManager* manager,
                                      const std::string& name,
                                      tpdb::Random* rng) {
  constexpr int kKeys = 8;
  tpdb::Schema facts;
  facts.AddColumn({"key", tpdb::DatumType::kInt64});
  TPRelation rel(name, facts, manager);
  double total_weight = 0.0;
  for (int k = 1; k <= kKeys; ++k) total_weight += std::pow(k, -2.5);
  tpdb::ChainOptions chain;
  chain.avg_duration = 120.0;
  chain.gap_probability = 0.2;
  chain.avg_gap = 20.0;
  for (int k = 0; k < kKeys; ++k) {
    const auto count = static_cast<int64_t>(std::llround(
        kSkewTuples * std::pow(k + 1, -2.5) / total_weight));
    TPDB_RETURN_IF_ERROR(AppendChain(
        &rel, tpdb::Row{tpdb::Datum(static_cast<int64_t>(k))}, count, chain,
        rng));
  }
  return rel;
}

Spec SkewLineageSpec(uint64_t seed) {
  Spec spec;
  tpdb::LineageManager staging;
  tpdb::Random rng(seed * 7919 + 3);
  StatusOr<TPRelation> r = MakeSkewRelation(&staging, "skew_r", &rng);
  CheckOk(r.status(), "generate skew_r");
  StatusOr<TPRelation> s = MakeSkewRelation(&staging, "skew_s", &rng);
  CheckOk(s.status(), "generate skew_s");
  // Set-up appends 512 rows per call: ~360 calls over the repetitions.
  spec.relations = {Stage(*r, 512), Stage(*s, 512)};
  spec.pairs.push_back({"skew_r", "skew_s", "key",
                        JoinCondition::Equals("key"),
                        JoinCondition::Equals("key")});
  spec.gate_time_points = 4;

  const JoinPair& pair = spec.pairs[0];
  spec.ops.push_back(JoinOp("skew", 0, pair, TPJoinKind::kLeftOuter));
  spec.ops.push_back(JoinOp("skew", 0, pair, TPJoinKind::kAnti));
  // OrAll per group. The hottest keys' groups are long entangled chains
  // whose exact probability does not finish; the colder keys' do.
  Op group;
  group.label = "skew.group_by";
  group.base_text =
      "SELECT * FROM skew_r INNER JOIN skew_s ON key WHERE key >= 3";
  group.text = "SELECT key, COUNT(*) FROM skew_r INNER JOIN skew_s ON key "
               "WHERE key >= 3 GROUP BY key";
  group.kind = OpKind::kGroupBy;
  spec.ops.push_back(std::move(group));
  Op filter;
  filter.label = "skew.with_prob";
  filter.text = spec.ops[0].text + " WITH PROB >= 0.3";
  filter.kind = OpKind::kProbFilter;
  filter.base_text = spec.ops[0].text;
  filter.min_prob = 0.3;
  spec.ops.push_back(std::move(filter));
  Op topk;
  topk.label = "skew.topk";
  topk.text = spec.ops[1].text + " ORDER BY _prob DESC LIMIT 50";
  topk.kind = OpKind::kTopK;
  topk.base_text = spec.ops[1].text;
  topk.k = 50;
  spec.ops.push_back(std::move(topk));
  return spec;
}

// -- Set-up ------------------------------------------------------------------

/// One set-up: a fresh database, every relation created and filled through
/// batched Append. Copies of the batches are made before the timer starts.
std::unique_ptr<TPDatabase> Load(const Spec& spec, double* seconds,
                                 Samples* append_ms) {
  std::vector<std::vector<std::vector<TPDatabase::AppendRow>>> copies;
  for (const StagedRelation& rel : spec.relations)
    copies.push_back(rel.batches);
  const Clock::time_point start = Clock::now();
  auto db = std::make_unique<TPDatabase>();
  for (size_t i = 0; i < spec.relations.size(); ++i) {
    CheckOk(db->CreateRelation(spec.relations[i].name,
                               spec.relations[i].schema)
                .status(),
            "create " + spec.relations[i].name);
    for (auto& batch : copies[i]) {
      const Clock::time_point t0 = Clock::now();
      CheckOk(db->Append(spec.relations[i].name, std::move(batch)),
              "append " + spec.relations[i].name);
      append_ms->Add(SecondsSince(t0) * 1e3);
    }
  }
  *seconds = SecondsSince(start);
  return db;
}

// -- Execution ---------------------------------------------------------------

/// Runs one query and reads every row's _prob. Traced: the same work as
/// Session::Query, split into its public steps (TracedQuery).
bool RunOp(TPDatabase* db, const SessionOptions& options, const Op& op,
           Tracer* tracer, size_t* rows) {
  if (!tracer->enabled()) {
    StatusOr<TPRelation> result = Session(db, options).Query(op.text);
    if (!result.ok()) return false;
    ReadAllProbabilities(*result);
    *rows = result->size();
    return true;
  }
  ScopedSpan request(tracer, "request", /*request=*/true);
  StatusOr<TPRelation> result = TracedQuery(db, options, op.text, tracer);
  if (!result.ok()) return false;
  *rows = result->size();
  return true;
}

struct PassStats {
  Samples latency_ms;
  std::map<std::string, Samples> per_op_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t rows = 0;
  double seconds = 0.0;
  size_t passes = 0;
  Samples pass_s;  ///< wall time of each pass
};

/// Whole passes over the op list until `seconds` have elapsed (at least
/// one), so every run sees the same mix of queries.
void RunPasses(TPDatabase* db, const SessionOptions& options,
               const Spec& spec, double seconds, Tracer* tracer,
               PassStats* stats) {
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point pass_start = Clock::now();
    for (const Op& op : spec.ops) {
      const Clock::time_point t0 = Clock::now();
      size_t rows = 0;
      ++stats->attempted;
      if (!RunOp(db, options, op, tracer, &rows)) {
        ++stats->failed;
        std::fprintf(stderr, "query failed: %s\n", op.label.c_str());
        continue;
      }
      const double ms = SecondsSince(t0) * 1e3;
      stats->latency_ms.Add(ms);
      stats->per_op_ms[op.label].Add(ms);
      stats->rows += rows;
    }
    stats->pass_s.Add(SecondsSince(pass_start));
    ++stats->passes;
  } while (SecondsSince(start) < seconds);
  stats->seconds = SecondsSince(start);
}

// -- Correctness gate ----------------------------------------------------------

struct ResultRow {
  tpdb::Row fact;
  tpdb::Interval interval;
  double prob;
};

std::vector<ResultRow> Rows(const TPRelation& rel) {
  std::vector<ResultRow> out;
  for (size_t i = 0; i < rel.size(); ++i)
    out.push_back({rel.tuple(i).fact, rel.tuple(i).interval,
                   rel.Probability(i)});
  return out;
}

bool SameRows(std::vector<ResultRow> a, std::vector<ResultRow> b) {
  auto less = [](const ResultRow& x, const ResultRow& y) {
    const int c = tpdb::CompareRows(x.fact, y.fact);
    if (c != 0) return c < 0;
    return x.interval.start < y.interval.start;
  };
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (tpdb::CompareRows(a[i].fact, b[i].fact) != 0 ||
        a[i].interval.start != b[i].interval.start ||
        a[i].interval.end != b[i].interval.end ||
        std::abs(a[i].prob - b[i].prob) > 1e-9)
      return false;
  return true;
}

/// Checks one op's result. Joins and set operations against the
/// reference evaluator at sampled time points; derived queries against the
/// (reference-checked) join they filter, sort or group.
std::string CheckOp(TPDatabase* db, const SessionOptions& options,
                    const Spec& spec, const Op& op, tpdb::Random* rng) {
  StatusOr<TPRelation> result = Session(db, options).Query(op.text);
  if (!result.ok()) return "query failed: " + result.status().ToString();
  const JoinPair& pair = spec.pairs[op.pair];
  if (op.kind == OpKind::kJoin || op.kind == OpKind::kSetOp) {
    const TPRelation* r = *db->Get(pair.r);
    const TPRelation* s = *db->Get(pair.s);
    for (int i = 0; i < spec.gate_time_points; ++i) {
      const tpdb::TimePoint t = SampleTimePoint(*r, *s, rng);
      const std::string diff =
          op.kind == OpKind::kJoin
              ? CheckJoinAt(op.join, *r, *s, pair.theta, *result, t)
              : CheckSetOpAt(op.set_op, *r, *s, *result, t);
      if (!diff.empty()) return "at t=" + std::to_string(t) + ": " + diff;
    }
    return "";
  }
  StatusOr<TPRelation> base = Session(db, options).Query(op.base_text);
  if (!base.ok()) return "base query failed: " + base.status().ToString();
  if (op.kind == OpKind::kProbFilter) {
    std::vector<ResultRow> base_rows = Rows(*base);
    std::vector<ResultRow> expected;
    for (ResultRow& row : base_rows)
      if (row.prob >= op.min_prob) expected.push_back(std::move(row));
    return SameRows(std::move(expected), Rows(*result))
               ? ""
               : "WITH PROB result differs from the filtered join";
  }
  if (op.kind == OpKind::kTopK) {
    std::vector<double> expected;
    for (size_t i = 0; i < base->size(); ++i)
      expected.push_back(base->Probability(i));
    std::sort(expected.rbegin(), expected.rend());
    expected.resize(std::min(expected.size(), op.k));
    if (result->size() != expected.size()) return "top-k row count differs";
    for (size_t i = 0; i < expected.size(); ++i)
      if (std::abs(result->Probability(i) - expected[i]) > 1e-9)
        return "top-k probability " + std::to_string(i) + " differs";
    return "";
  }
  // GROUP BY key over the join: one group per key, whose probability is
  // Pr[λ₁ ∨ … ∨ λₙ] over the group's join rows (evaluated here with the
  // plain Shannon engine, not the planner's evaluation ladder).
  std::map<int64_t, std::vector<tpdb::LineageRef>> groups;
  for (size_t i = 0; i < base->size(); ++i)
    groups[base->tuple(i).fact[0].AsInt64()].push_back(base->tuple(i).lineage);
  if (result->size() != groups.size()) return "group count differs";
  tpdb::ProbabilityEngine engine(db->manager());
  for (size_t i = 0; i < result->size(); ++i) {
    auto it = groups.find(result->tuple(i).fact[0].AsInt64());
    if (it == groups.end()) return "unexpected group";
    const double expected =
        engine.Probability(db->manager()->OrAll(it->second));
    if (std::abs(result->Probability(i) - expected) > 1e-9)
      return "group probability differs";
  }
  return "";
}

// -- Traced per-layer metrics --------------------------------------------------

void ReportPerLayer(TPDatabase* db, const Spec& spec,
                    const SessionOptions& options, const RunConfig& config,
                    Outcome* out) {
  Report& rep = out->report;
  Tracer tracer(true);
  const int workers =
      static_cast<int>(tpdb::ThreadPool::HardwareParallelism());

  // Cold pass, traced: lineage interning and evaluation on empty memos.
  const size_t nodes_before = db->manager()->num_nodes();
  const CounterReading cold_before = CounterReading::Take();
  PassStats cold;
  RunPasses(db, options, spec, 0.0, &tracer, &cold);
  const CounterReading cold_delta = CounterReading::Take().Delta(cold_before);
  const auto cold_spans = tracer.Aggregate();
  const double cold_rows = std::max<double>(1.0, cold.rows);
  rep.Set("lineage.nodes_per_row",
          static_cast<double>(db->manager()->num_nodes() - nodes_before) /
              cold_rows,
          "nodes/row");
  rep.Set("lineage.prob_us",
          cold_spans.count("lineage.prob")
              ? cold_spans.at("lineage.prob").total_us / cold_rows
              : 0.0,
          "us/row");
  ReportLineageCounters(cold_delta, &rep);

  // Warm passes: half untraced, half traced — the overhead of tracing.
  Tracer off(false);
  PassStats untraced;
  RunPasses(db, options, spec, config.seconds / 2, &off, &untraced);
  const size_t warm_first = tracer.spans().size();
  const CounterReading warm_before = CounterReading::Take();
  PassStats traced;
  RunPasses(db, options, spec, config.seconds / 2, &tracer, &traced);
  const CounterReading warm = CounterReading::Take().Delta(warm_before);
  out->attempted += cold.attempted + untraced.attempted + traced.attempted;
  out->failed += cold.failed + untraced.failed + traced.failed;

  const auto spans = tracer.Aggregate(warm_first);
  auto total = [&](const std::string& name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_us;
  };
  auto self = [&](const std::string& name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.self_us;
  };
  const double queries = std::max<double>(1.0, traced.latency_ms.count());
  rep.Set("api.parse_us", total("api.parse") / queries, "us/query");
  rep.Set("api.lower_us", total("api.lower") / queries, "us/query");
  rep.Set("api.execute_us",
          (total("api.execute") - total("api.lower")) / queries, "us/query");
  rep.Set("exec.tasks", warm.Counter("tpdb_exec_tasks_total") / queries,
          "count/query");
  rep.Set("exec.steals", warm.Counter("tpdb_exec_steals_total") / queries,
          "count/query");
  rep.Set("exec.busy_ratio",
          warm.HistogramSum("tpdb_exec_task_us") /
              (traced.seconds * 1e6 * workers),
          "ratio");
  rep.Set("self.api_us", (self("api.parse") + self("api.execute")) / queries,
          "us/query");
  rep.Set("self.lineage_us", self("lineage.prob") / queries, "us/query");
  rep.Set("self.server_us", 0.0, "us/request");
  rep.Set("trace.uncovered_ratio",
          total("request") > 0 ? self("request") / total("request") : 0.0,
          "ratio");
  const double per_pass_off =
      untraced.seconds / static_cast<double>(untraced.passes);
  const double per_pass_on =
      traced.seconds / static_cast<double>(traced.passes);
  rep.Set("trace.overhead_pct", (per_pass_on / per_pass_off - 1.0) * 100.0,
          "%");
  rep.Set("trace.spans", static_cast<double>(tracer.spans().size()), "count");

  // The tp layer alone: TPDatabase::Join on the same inputs, per kind.
  tpdb::TPJoinOptions join_options;
  for (const TPJoinKind kind : kJoinKinds) {
    double us = 0.0;
    double rows = 0.0;
    int calls = 0;
    for (const JoinPair& pair : spec.pairs) {
      ScopedSpan span(&tracer, std::string("tp.join.") + JoinLabel(kind));
      const Clock::time_point t0 = Clock::now();
      StatusOr<TPRelation> joined =
          db->Join(kind, pair.r, pair.s, pair.paper_theta, join_options);
      us += SecondsSince(t0) * 1e6;
      ++calls;
      ++out->attempted;
      if (!joined.ok()) {
        ++out->failed;
        continue;
      }
      rows += static_cast<double>(joined->size());
    }
    rep.Set(std::string("tp.join_us.") + JoinLabel(kind), us / calls,
            "us/join");
    if (kind == TPJoinKind::kLeftOuter) rep.Set("tp.rows_out", rows / calls,
                                                "rows/join");
  }
  ReportNotReached({{"storage.load_us", "us"},
                    {"storage.prune_ratio", "ratio"},
                    {"storage.rows_decoded_per_row", "rows/row"},
                    {"storage.decode_us", "us/query"},
                    {"storage.wal_fsync_us", "us"},
                    {"storage.wal_bytes_per_user_byte", "ratio"},
                    {"storage.compactions", "count/append"},
                    {"storage.compaction_us", "us"},
                    {"server.overhead_us", "us/query"},
                    {"server.queue_wait_us", "us"},
                    {"server.bytes_per_row", "B/row"}},
                   &rep);

  WriteTrace(tracer, config);
}

bool RunInProcess(const RunConfig& config, const Spec& spec, Outcome* out) {
  SessionOptions options;  // default parallelism: one worker per core
  ThreadPlan threads;
  threads.exec_workers_per_query =
      static_cast<int>(tpdb::ThreadPool::HardwareParallelism());
  if (!PrintHostBlock(config, threads, "no WAL (in-memory Append)"))
    return false;

  // Set-ups and cold passes (empty lineage, probability and circuit memos)
  // run on fresh databases spread over the whole window: each round is one
  // warm pass on the measured database, then kSetUpsPerRound set-ups into
  // scratch databases, the first followed by a cold pass on every other
  // round. The host's speed drifts in phases of about a second, so
  // spreading the repetitions keeps their trimmed means steady.
  Samples setup_s;
  Samples append_ms;
  Samples cold_s;
  PassStats cold;
  Tracer off(false);
  auto set_up = [&](bool cold_pass) {
    double seconds = 0.0;
    std::unique_ptr<TPDatabase> fresh = Load(spec, &seconds, &append_ms);
    setup_s.Add(seconds);
    if (cold_pass) {
      cold = PassStats();
      RunPasses(fresh.get(), options, spec, 0.0, &off, &cold);
      cold_s.Add(cold.seconds);
      out->attempted += cold.attempted;
      out->failed += cold.failed;
    }
    return fresh;
  };
  std::unique_ptr<TPDatabase> db = set_up(!config.trace);
  size_t base_rows = 0;
  for (const StagedRelation& rel : spec.relations) base_rows += rel.rows;

  Report& rep = out->report;
  if (config.trace) {
    ReportPerLayer(db.get(), spec, options, config, out);
  } else {
    PassStats warm;
    const Clock::time_point start = Clock::now();
    for (int round = 0; round == 0 || SecondsSince(start) < config.seconds;
         ++round) {
      RunPasses(db.get(), options, spec, 0.0, &off, &warm);
      for (int i = 0; i < kSetUpsPerRound; ++i) set_up(i == 0 && round % 2);
    }
    while (cold_s.count() < kColdPasses) set_up(true);
    out->attempted += warm.attempted;
    out->failed += warm.failed;

    rep.Set("setup_s", setup_s.TrimmedMean(kTrim), "s");
    rep.Set("cold_pass_s", cold_s.TrimmedMean(kTrim), "s");
    // Queries per second over whole passes: a pass is a fixed mix, and
    // the trimmed mean of its time shrugs off the odd stalled pass.
    rep.Set("qps",
            static_cast<double>(spec.ops.size()) /
                warm.pass_s.TrimmedMean(kTrim),
            "1/s");
    rep.Set("query_p50_ms", warm.latency_ms.Quantile(0.5), "ms");
    rep.Set("query_p95_ms", warm.latency_ms.Quantile(0.95), "ms");
    rep.Set("append_p50_ms", append_ms.Quantile(0.5), "ms");
    rep.Set("append_p95_ms", append_ms.Quantile(0.95), "ms");
    const std::string path = config.data_dir + "/end.tpdb";
    CheckOk(db->SaveSnapshot(path), "save snapshot");
    rep.Set("stored_bytes_per_row",
            static_cast<double>(FileBytes(path)) /
                static_cast<double>(base_rows),
            "B/row");
    std::printf("samples: queries=%zu appends=%zu passes=%zu set-ups=%zu\n",
                warm.latency_ms.count(), append_ms.count(), warm.passes,
                setup_s.count());
    std::fprintf(stderr, "  set-up p25 %.4f p50 %.4f p75 %.4f s\n",
                 setup_s.Quantile(0.25), setup_s.Median(),
                 setup_s.Quantile(0.75));
    for (const auto& [label, samples] : warm.per_op_ms)
      std::fprintf(stderr, "  %-20s cold %9.3f ms  warm median %9.3f ms\n",
                   label.c_str(), cold.per_op_ms[label].Median(),
                   samples.Median());
  }

  // Correctness gate (untimed).
  tpdb::Random rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
  for (const Op& op : spec.ops) {
    const std::string diff = CheckOp(db.get(), options, spec, op, &rng);
    if (!diff.empty()) {
      std::fprintf(stderr, "MISMATCH %s: %s\n", op.label.c_str(),
                   diff.c_str());
      out->correct = false;
    }
  }
  if (!config.trace) {
    rep.Set("peak_rss_mb", PeakRssMb(), "MB");
    rep.Set("ok_ratio",
            static_cast<double>(out->attempted - out->failed) /
                static_cast<double>(std::max<uint64_t>(1, out->attempted)),
            "ratio");
  }
  return true;
}

}  // namespace

bool RunPaperJoins(const RunConfig& config, Outcome* out) {
  return RunInProcess(config, PaperJoinsSpec(config.seed), out);
}

bool RunSkewLineage(const RunConfig& config, Outcome* out) {
  return RunInProcess(config, SkewLineageSpec(config.seed), out);
}

}  // namespace perfbench
