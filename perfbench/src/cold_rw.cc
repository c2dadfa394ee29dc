// cold_rw: a database restored from a compressed snapshot with the WAL
// armed, served by an in-process Server over loopback to one connection.
// Time-range filters, filter + GROUP BY scans and top-k by _prob are
// interleaved at a fixed ratio with batched Appends (fsync before ack),
// which cross the compaction threshold many times per run.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "common/random.h"
#include "datasets/meteo.h"
#include "exec/session.h"
#include "exec/thread_pool.h"
#include "server/client.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tpdb::StatusOr;
using tpdb::TPDatabase;
using tpdb::TPRelation;
using tpdb::server::AppendRowMsg;
using tpdb::server::Client;
using tpdb::server::ClientResult;
using tpdb::server::Server;

constexpr char kRelation[] = "readings";
constexpr int64_t kBaseTuples = 60000;
constexpr tpdb::TimePoint kHistory = 5000;
/// One append of kAppendRows rows after every kQueriesPerAppend queries.
constexpr int kQueriesPerAppend = 4;
constexpr int kAppendRows = 32;
/// Distinct query texts in the operation list.
constexpr int kQueryTexts = 48;
/// Passes made on each restored database after its cold pass. Every
/// database starts from the base snapshot and takes the same appends, so
/// the measured data does not grow with the engine's speed.
constexpr int kWarmPassesPerDatabase = 2;
constexpr size_t kAppendsPerDatabase =
    (1 + kWarmPassesPerDatabase) * (kQueryTexts / kQueriesPerAppend);
/// The engine's default compaction trigger, in delta segments (one per
/// Append): every 8th append on a database schedules a compaction.
constexpr size_t kCompactionThreshold = 8;

struct Op {
  bool append = false;
  std::string text;   ///< query text (queries only)
  std::string shape;  ///< "range", "group" or "topk" (queries only)
};

struct Inputs {
  std::vector<Op> ops;
  std::vector<std::string> texts;  ///< the distinct query texts
  std::vector<std::vector<AppendRowMsg>> appends;
  size_t base_rows = 0;
};

/// Generates the base relation (Meteo-shaped (station, metric) readings,
/// ordered by interval start so zone maps prune time ranges), saves it as
/// a compressed snapshot, and builds the op list and append batches.
Inputs Generate(const RunConfig& config, const std::string& snapshot) {
  Inputs in;
  {
    TPDatabase staging;
    tpdb::MeteoOptions options;
    options.seed = config.seed * 3 + 11;
    options.num_tuples = kBaseTuples;
    options.history_length = kHistory;
    StatusOr<tpdb::MeteoDataset> meteo =
        MakeMeteoDataset(staging.manager(), options);
    CheckOk(meteo.status(), "generate readings");
    std::vector<size_t> order(meteo->r.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return meteo->r.tuple(a).interval.start <
             meteo->r.tuple(b).interval.start;
    });
    TPRelation sorted(kRelation, meteo->r.fact_schema(), staging.manager());
    for (const size_t i : order) {
      const tpdb::TPTuple& t = meteo->r.tuple(i);
      CheckOk(sorted.AppendDerived(t.fact, t.interval, t.lineage), "sort");
    }
    in.base_rows = sorted.size();
    CheckOk(staging.Register(std::move(sorted)), "register");
    CheckOk(staging.SaveSnapshot(snapshot), "save base snapshot");
  }

  // Every seed runs the same set of query shapes (time-range widths,
  // station bounds, k); the seed places the time ranges and orders the set.
  tpdb::Random rng(config.seed * 104729 + 5);
  constexpr int kPerShape = kQueryTexts / 3;
  std::vector<int> steps[3];
  for (std::vector<int>& order : steps) {
    for (int j = 0; j < kPerShape; ++j) order.push_back(j);
    for (int j = kPerShape - 1; j > 0; --j)
      std::swap(order[j], order[rng.Uniform(0, j)]);
  }
  for (int i = 0; i < kQueryTexts; ++i) {
    const int j = steps[i % 3][i / 3];
    std::string text;
    switch (i % 3) {
      case 0: {  // time-range filter
        const int64_t lo = rng.Uniform(0, kHistory - 100);
        text = "SELECT * FROM readings WHERE _ts >= " + std::to_string(lo) +
               " AND _ts < " + std::to_string(lo + 20 + 40 * j / kPerShape);
        break;
      }
      case 1:  // filter + GROUP BY scan
        text = "SELECT metric, COUNT(*) FROM readings WHERE station < " +
               std::to_string(5 + j) + " GROUP BY metric";
        break;
      default: {  // top-k by probability within a time range
        const int64_t lo = rng.Uniform(0, kHistory - 400);
        text = "SELECT * FROM readings WHERE _ts >= " + std::to_string(lo) +
               " AND _ts < " + std::to_string(lo + 200 + 200 * j / kPerShape) +
               " ORDER BY _prob DESC LIMIT " + std::to_string(5 + j);
        break;
      }
    }
    in.texts.push_back(text);
    static const char* const kShapes[] = {"range", "group", "topk"};
    in.ops.push_back({false, text, kShapes[i % 3]});
    if ((i + 1) % kQueriesPerAppend == 0) in.ops.push_back({true, "", ""});
  }
  for (size_t a = 0; a < kAppendsPerDatabase; ++a) {
    std::vector<AppendRowMsg> batch;
    for (int j = 0; j < kAppendRows; ++j) {
      AppendRowMsg row;
      // A fresh station per batch keeps every fact's intervals disjoint.
      row.fact = {tpdb::Datum(static_cast<int64_t>(100000 + a)),
                  tpdb::Datum(static_cast<int64_t>(j))};
      row.ts = rng.Uniform(0, kHistory - 1);
      row.te = row.ts + rng.Uniform(1, 200);
      row.prob = rng.UniformDouble(0.5, 1.0);
      batch.push_back(std::move(row));
    }
    in.appends.push_back(std::move(batch));
  }
  return in;
}

/// A served database: what one set-up builds.
struct Served {
  std::unique_ptr<TPDatabase> db;
  std::unique_ptr<Server> server;
  std::unique_ptr<Client> client;

  void Stop() {
    if (client != nullptr) (void)client->Close();
    client.reset();
    if (server != nullptr) server->Shutdown();
    server.reset();
    db.reset();
  }
};

tpdb::server::ServerOptions MakeServerOptions() {
  tpdb::server::ServerOptions options;
  options.session.parallelism = 1;
  return options;
}

Served SetUp(const std::string& snapshot, const std::string& wal,
             double* load_s) {
  Served s;
  s.db = std::make_unique<TPDatabase>();
  const Clock::time_point t0 = Clock::now();
  CheckOk(s.db->LoadSnapshot(snapshot), "load snapshot");
  *load_s = SecondsSince(t0);
  CheckOk(s.db->EnableWal(wal), "enable wal");
  s.server = std::make_unique<Server>(s.db.get(), MakeServerOptions());
  CheckOk(s.server->Start(), "start server");
  tpdb::server::ClientOptions client_options;
  client_options.port = s.server->port();
  StatusOr<std::unique_ptr<Client>> client = Client::Connect(client_options);
  CheckOk(client.status(), "connect");
  s.client = std::move(*client);
  return s;
}

double SumProb(const ClientResult& result) {
  double sum = 0.0;
  const size_t prob_col = result.schema.num_columns() - 1;
  for (const tpdb::Row& row : result.rows) sum += row[prob_col].AsDouble();
  return sum;
}

struct LoopStats {
  Samples query_ms;
  std::map<std::string, Samples> per_shape_ms;
  Samples append_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t rows = 0;
  size_t appended_rows = 0;
  double seconds = 0.0;
  Samples pass_s;  ///< wall time of each pass
};

/// Sleeps until `db` has completed `count` compactions (false after 10 s).
/// The append that crossed the threshold scheduled one on the pool; the
/// client sends nothing until it is done, so compactions never run beside
/// served requests and never share the cores with the client.
bool WaitForCompactions(const TPDatabase& db, uint64_t count) {
  const Clock::time_point start = Clock::now();
  while (db.Stats().compactions < count) {
    if (SecondsSince(start) > 10.0) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

/// One pass over the op list through the served connection. Acknowledged
/// append batches (indices into in.appends) are recorded in `acked`.
void RunPass(Served* served, const Inputs& in, Tracer* tracer,
             size_t* next_append, std::vector<size_t>* acked,
             LoopStats* stats) {
  const Clock::time_point pass_start = Clock::now();
  for (const Op& op : in.ops) {
    ++stats->attempted;
    const Clock::time_point t0 = Clock::now();
    if (op.append) {
      const size_t batch = (*next_append)++;
      StatusOr<uint64_t> n = [&] {
        ScopedSpan request(tracer, "request", /*request=*/true);
        ScopedSpan span(tracer, "server.append");
        return served->client->Append(kRelation, in.appends[batch]);
      }();
      if (!n.ok() || *n != in.appends[batch].size()) {
        ++stats->failed;
        continue;
      }
      stats->append_ms.Add(SecondsSince(t0) * 1e3);
      stats->appended_rows += *n;
      acked->push_back(batch);
      if (acked->size() % kCompactionThreshold == 0 &&
          !WaitForCompactions(*served->db,
                              acked->size() / kCompactionThreshold)) {
        ++stats->failed;
        std::fprintf(stderr, "compaction did not finish\n");
      }
      continue;
    }
    ScopedSpan request(tracer, "request", /*request=*/true);
    StatusOr<ClientResult> result = [&] {
      ScopedSpan span(tracer, "server.query");
      return served->client->Query(op.text);
    }();
    if (!result.ok()) {
      ++stats->failed;
      std::fprintf(stderr, "query failed: %s: %s\n", op.text.c_str(),
                   result.status().ToString().c_str());
      continue;
    }
    {
      ScopedSpan span(tracer, "client.read_prob");
      SumProb(*result);
    }
    const double ms = SecondsSince(t0) * 1e3;
    stats->query_ms.Add(ms);
    stats->per_shape_ms[op.shape].Add(ms);
    stats->rows += result->rows.size();
  }
  const double seconds = SecondsSince(pass_start);
  stats->pass_s.Add(seconds);
  stats->seconds += seconds;
}

/// In-process result of `text` under the server's session options, with
/// every _prob read; traced under an "inproc" request span.
StatusOr<TPRelation> InProcess(TPDatabase* db, const std::string& text,
                               Tracer* tracer) {
  ScopedSpan request(tracer, "inproc", /*request=*/true);
  return TracedQuery(db, MakeServerOptions().session, text, tracer);
}

/// Wire result == in-process result, element-wise: facts, intervals and
/// the exact _prob doubles, in order.
std::string CheckParity(TPDatabase* db, Client* client,
                        const std::string& text) {
  Tracer off(false);
  StatusOr<TPRelation> local = InProcess(db, text, &off);
  if (!local.ok()) return "in-process failed: " + local.status().ToString();
  StatusOr<ClientResult> wire = client->Query(text);
  if (!wire.ok()) return "wire failed: " + wire.status().ToString();
  if (wire->rows.size() != local->size()) return "row count differs";
  const size_t cols = wire->schema.num_columns();
  for (size_t i = 0; i < local->size(); ++i) {
    const tpdb::TPTuple& t = local->tuple(i);
    const tpdb::Row& row = wire->rows[i];
    if (row.size() != cols || cols != t.fact.size() + 3)
      return "row " + std::to_string(i) + " has the wrong arity";
    for (size_t c = 0; c < t.fact.size(); ++c)
      if (!(row[c] == t.fact[c]))
        return "row " + std::to_string(i) + " fact differs";
    if (row[cols - 3].AsInt64() != t.interval.start ||
        row[cols - 2].AsInt64() != t.interval.end ||
        row[cols - 1].AsDouble() != local->Probability(i))
      return "row " + std::to_string(i) + " interval or _prob differs";
  }
  return "";
}

/// Recovery: a fresh database loads the base snapshot and replays the WAL;
/// every acknowledged row must be there, with its interval and probability.
std::string CheckRecovery(const std::string& snapshot, const std::string& wal,
                          const Inputs& in, const std::vector<size_t>& acked,
                          TPDatabase* fresh) {
  CheckOk(fresh->LoadSnapshot(snapshot), "reload snapshot");
  CheckOk(fresh->EnableWal(wal), "replay wal");
  StatusOr<const TPRelation*> rel =
      static_cast<const TPDatabase*>(fresh)->Get(kRelation);
  if (!rel.ok()) return "relation missing after recovery";
  const size_t expected = in.base_rows + acked.size() * kAppendRows;
  if ((*rel)->size() != expected)
    return "recovered " + std::to_string((*rel)->size()) + " rows, expected " +
           std::to_string(expected);
  std::map<std::pair<int64_t, int64_t>, size_t> index;
  for (size_t i = in.base_rows; i < (*rel)->size(); ++i) {
    const tpdb::Row& fact = (*rel)->tuple(i).fact;
    index[{fact[0].AsInt64(), fact[1].AsInt64()}] = i;
  }
  for (const size_t batch : acked) {
    for (const AppendRowMsg& row : in.appends[batch]) {
      auto it = index.find({row.fact[0].AsInt64(), row.fact[1].AsInt64()});
      if (it == index.end()) return "acknowledged row lost";
      const tpdb::TPTuple& t = (*rel)->tuple(it->second);
      if (t.interval.start != row.ts || t.interval.end != row.te ||
          std::abs((*rel)->Probability(it->second) - row.prob) > 1e-12)
        return "acknowledged row changed";
    }
  }
  return "";
}

}  // namespace

bool RunColdRw(const RunConfig& config, Outcome* out) {
  ThreadPlan threads;
  threads.exec_workers_per_query = 1;
  threads.server_reactor = 1;
  // BuildCompacted spreads a compaction over the whole shared pool.
  threads.compaction_workers =
      static_cast<int>(tpdb::ThreadPool::HardwareParallelism());
  if (!PrintHostBlock(config, threads,
                      "WAL fsync before every append ack, data dir in checkout"))
    return false;

  const std::string snapshot = config.data_dir + "/base.tpdb";
  const std::string wal = config.data_dir + "/wal.log";
  const Inputs in = Generate(config, snapshot);
  Report& rep = out->report;
  Tracer tracer(config.trace);
  Tracer off(false);

  // Rounds until the window is over: restore a database from the base
  // snapshot with a fresh WAL, serve it (the timed set-up), make one cold
  // pass and kWarmPassesPerDatabase measured passes through the connection,
  // then stop it and check that a fresh database recovers every
  // acknowledged row from snapshot + WAL. Traced runs trace every other
  // measured pass, so the untraced ones give the overhead of tracing. The
  // last round's database stays up for the wire/in-process checks.
  Samples setup_s;
  Samples load_s;
  LoopStats cold;
  LoopStats warm;
  LoopStats traced;
  CounterReading first_cold_counters;
  CounterReading traced_counters;
  double first_cold_nodes = 0.0;
  double first_cold_rows = 1.0;
  Served served;
  std::vector<size_t> acked;
  TPDatabase recovered;
  auto check_recovery = [&](TPDatabase* fresh) {
    served.Stop();
    const std::string diff = CheckRecovery(snapshot, wal, in, acked, fresh);
    if (!diff.empty()) {
      std::fprintf(stderr, "MISMATCH recovery: %s\n", diff.c_str());
      out->correct = false;
    }
  };
  const Clock::time_point start = Clock::now();
  for (int round = 0;; ++round) {
    double load = 0.0;
    const Clock::time_point t0 = Clock::now();
    served = SetUp(snapshot, wal, &load);
    setup_s.Add(SecondsSince(t0));
    load_s.Add(load);
    acked.clear();
    size_t next_append = 0;
    const size_t nodes_before = served.db->manager()->num_nodes();
    const CounterReading before = CounterReading::Take();
    RunPass(&served, in, &off, &next_append, &acked, &cold);
    if (round == 0) {
      first_cold_counters = CounterReading::Take().Delta(before);
      first_cold_nodes = static_cast<double>(
          served.db->manager()->num_nodes() - nodes_before);
      first_cold_rows = std::max<double>(
          1.0, static_cast<double>(cold.rows + cold.appended_rows));
    }
    for (int pass = 0; pass < kWarmPassesPerDatabase; ++pass) {
      // Alternate which position is traced, so neither side of the
      // overhead comparison always runs first on a fresh database.
      if (config.trace && (pass + round) % 2 == 1) {
        const CounterReading traced_before = CounterReading::Take();
        RunPass(&served, in, &tracer, &next_append, &acked, &traced);
        traced_counters.Add(CounterReading::Take().Delta(traced_before));
      } else {
        RunPass(&served, in, &off, &next_append, &acked, &warm);
      }
    }
    if (SecondsSince(start) >= config.seconds &&
        cold.pass_s.count() >= static_cast<size_t>(kColdPasses))
      break;
    TPDatabase fresh;
    check_recovery(&fresh);
    unlink(wal.c_str());
  }
  for (const LoopStats* stats : {&cold, &warm, &traced}) {
    out->attempted += stats->attempted;
    out->failed += stats->failed;
  }

  if (!config.trace) {
    rep.Set("setup_s", setup_s.TrimmedMean(kTrim), "s");
    rep.Set("cold_pass_s", cold.pass_s.TrimmedMean(kTrim), "s");
    // Queries per second over whole passes (a fixed mix of queries,
    // appends and the compactions they trigger); the trimmed mean of the
    // pass time shrugs off the odd stalled pass.
    rep.Set("qps",
            static_cast<double>(in.texts.size()) /
                warm.pass_s.TrimmedMean(kTrim),
            "1/s");
    rep.Set("query_p50_ms", warm.query_ms.Quantile(0.5), "ms");
    rep.Set("query_p95_ms", warm.query_ms.Quantile(0.95), "ms");
    rep.Set("append_p50_ms", warm.append_ms.Quantile(0.5), "ms");
    rep.Set("append_p95_ms", warm.append_ms.Quantile(0.95), "ms");
    std::printf("samples: queries=%zu appends=%zu passes=%zu set-ups=%zu\n",
                warm.query_ms.count(), warm.append_ms.count(),
                warm.pass_s.count(), setup_s.count());
    std::fprintf(stderr, "  set-up p25 %.4f p50 %.4f p75 %.4f s\n",
                 setup_s.Quantile(0.25), setup_s.Median(),
                 setup_s.Quantile(0.75));
    std::fprintf(stderr, "  append p90 %.3f p95 %.3f p99 %.3f ms\n",
                 warm.append_ms.Quantile(0.9), warm.append_ms.Quantile(0.95),
                 warm.append_ms.Quantile(0.99));
    for (const auto& [shape, samples] : warm.per_shape_ms)
      std::fprintf(stderr, "  %-6s median %8.3f ms  p95 %8.3f ms\n",
                   shape.c_str(), samples.Median(), samples.Quantile(0.95));
  } else {
    const auto spans = tracer.Aggregate();
    auto total = [&](const std::string& name) {
      auto it = spans.find(name);
      return it == spans.end() ? 0.0 : it->second.total_us;
    };
    auto self = [&](const std::string& name) {
      auto it = spans.find(name);
      return it == spans.end() ? 0.0 : it->second.self_us;
    };
    const CounterReading& d = traced_counters;
    const double queries = std::max<double>(1.0, traced.query_ms.count());
    const double appends = std::max<double>(1.0, traced.append_ms.count());
    const double rows = std::max<double>(1.0, traced.rows);
    const double scanned = d.Counter("tpdb_storage_segments_scanned_total");
    const double pruned = d.Counter("tpdb_storage_segments_pruned_total");
    // Bytes a user hands over per appended row: the fact's two int64
    // columns, the interval's two endpoints and the probability.
    const double user_bytes =
        static_cast<double>(traced.appended_rows) * (5 * sizeof(int64_t));
    rep.Set("storage.load_us", load_s.Median() * 1e6, "us");
    rep.Set("storage.prune_ratio",
            scanned + pruned > 0 ? pruned / (scanned + pruned) : 0.0, "ratio");
    rep.Set("storage.rows_decoded_per_row",
            d.Counter("tpdb_storage_rows_decoded_total") / rows, "rows/row");
    rep.Set("storage.decode_us",
            d.HistogramSum("tpdb_storage_segment_decode_us") / queries,
            "us/query");
    rep.Set("storage.wal_fsync_us", d.HistogramMean("tpdb_wal_fsync_us"),
            "us");
    rep.Set("storage.wal_bytes_per_user_byte",
            user_bytes > 0 ? d.Counter("tpdb_wal_bytes_total") / user_bytes
                           : 0.0,
            "ratio");
    rep.Set("storage.compactions",
            d.Counter("tpdb_storage_compactions_total") / appends,
            "count/append");
    rep.Set("storage.compaction_us",
            d.HistogramMean("tpdb_storage_compaction_us"), "us");
    rep.Set("server.queue_wait_us",
            d.HistogramMean("tpdb_server_queue_wait_us"), "us");
    rep.Set("server.bytes_per_row",
            d.Counter("tpdb_server_bytes_sent_total") / rows, "B/row");
    rep.Set("exec.tasks", d.Counter("tpdb_exec_tasks_total") / queries,
            "count/query");
    rep.Set("exec.steals", d.Counter("tpdb_exec_steals_total") / queries,
            "count/query");
    rep.Set("exec.busy_ratio",
            d.HistogramSum("tpdb_exec_task_us") /
                (traced.seconds * 1e6 *
                 static_cast<double>(tpdb::ThreadPool::HardwareParallelism())),
            "ratio");
    rep.Set("self.server_us",
            (self("server.query") + self("server.append")) /
                (queries + appends),
            "us/request");
    rep.Set("trace.uncovered_ratio",
            total("request") > 0 ? self("request") / total("request") : 0.0,
            "ratio");
    rep.Set("trace.overhead_pct",
            (traced.pass_s.Mean() / warm.pass_s.Mean() - 1.0) * 100.0,
            "%");

    // Server overhead: the same text over the wire and in process.
    const size_t first = tracer.spans().size();
    Samples wire_us;
    Samples local_us;
    double local_rows = 0.0;
    for (int round = 0; round < 3; ++round) {
      for (const std::string& text : in.texts) {
        Clock::time_point t0 = Clock::now();
        StatusOr<ClientResult> wire = served.client->Query(text);
        if (wire.ok()) SumProb(*wire);
        wire_us.Add(SecondsSince(t0) * 1e6);
        t0 = Clock::now();
        StatusOr<TPRelation> local = InProcess(served.db.get(), text, &tracer);
        local_us.Add(SecondsSince(t0) * 1e6);
        if (local.ok()) local_rows += static_cast<double>(local->size());
        out->attempted += 2;
        if (!wire.ok() || !local.ok()) out->failed += 1;
      }
    }
    const auto inproc = tracer.Aggregate(first);
    auto in_total = [&](const std::string& name) {
      auto it = inproc.find(name);
      return it == inproc.end() ? 0.0 : it->second.total_us;
    };
    const double n = static_cast<double>(local_us.count());
    rep.Set("server.overhead_us", wire_us.Mean() - local_us.Mean(), "us/query");
    rep.Set("api.parse_us", in_total("api.parse") / n, "us/query");
    rep.Set("api.lower_us", in_total("api.lower") / n, "us/query");
    rep.Set("api.execute_us",
            (in_total("api.execute") - in_total("api.lower")) / n, "us/query");
    rep.Set("self.api_us",
            (in_total("api.parse") + in_total("api.execute")) / n, "us/query");
    rep.Set("self.lineage_us", in_total("lineage.prob") / n, "us/query");
    rep.Set("lineage.nodes_per_row", first_cold_nodes / first_cold_rows,
            "nodes/row");
    rep.Set("lineage.prob_us",
            in_total("lineage.prob") / std::max<double>(1.0, local_rows),
            "us/row");
    ReportLineageCounters(first_cold_counters, &rep);
    rep.Set("trace.spans", static_cast<double>(tracer.spans().size()), "count");
    ReportNotReached({{"tp.join_us.inner", "us/join"},
                      {"tp.join_us.left", "us/join"},
                      {"tp.join_us.right", "us/join"},
                      {"tp.join_us.full", "us/join"},
                      {"tp.join_us.anti", "us/join"},
                      {"tp.rows_out", "rows/join"}},
                     &rep);
    WriteTrace(tracer, config);
  }

  // Correctness gate (untimed) on the last round's database: wire ==
  // in-process, then crash recovery.
  for (const std::string& text : in.texts) {
    const std::string diff =
        CheckParity(served.db.get(), served.client.get(), text);
    if (!diff.empty()) {
      std::fprintf(stderr, "MISMATCH wire/in-process '%s': %s\n",
                   text.c_str(), diff.c_str());
      out->correct = false;
    }
  }
  check_recovery(&recovered);
  if (!config.trace) {
    const std::string end = config.data_dir + "/end.tpdb";
    CheckOk(recovered.SaveSnapshot(end), "save snapshot");
    StatusOr<const TPRelation*> rel =
        static_cast<const TPDatabase&>(recovered).Get(kRelation);
    rep.Set("stored_bytes_per_row",
            static_cast<double>(FileBytes(end)) /
                static_cast<double>(rel.ok() ? (*rel)->size() : 1),
            "B/row");
    rep.Set("peak_rss_mb", PeakRssMb(), "MB");
    rep.Set("ok_ratio",
            static_cast<double>(out->attempted - out->failed) /
                static_cast<double>(std::max<uint64_t>(1, out->attempted)),
            "ratio");
  }
  return true;
}

}  // namespace perfbench
