// Tracing invariants: spans nest, the chrome://tracing JSON is sound, and
// — the load-bearing property — a traced query's plan-node spans mirror
// the Explain "Physical plan (est | actual)" tree node-for-node: same
// node count, same pre-order, same actual row counts, because both views
// read the same NodeStats of the same run.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/random.h"
#include "datasets/generator.h"
#include "exec/session.h"
#include "obs/metrics.h"
#include "obs/slow_query.h"
#include "storage/snapshot.h"

namespace tpdb::obs {
namespace {

/// The "actual N rows" sequence of a physical-plan rendering, in line
/// (pre-)order — the reference the plan spans must match element-wise.
std::vector<uint64_t> ActualRowsInPlanText(const std::string& plan) {
  std::vector<uint64_t> rows;
  size_t pos = 0;
  while ((pos = plan.find("(actual ", pos)) != std::string::npos) {
    pos += 8;
    rows.push_back(std::strtoull(plan.c_str() + pos, nullptr, 10));
  }
  return rows;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Random rng(123);
    UniformWorkloadOptions options;
    options.num_tuples = 400;
    options.num_facts = 60;
    options.history_length = 1500;
    options.gap_probability = 0.3;
    for (const char* name : {"r", "s"}) {
      StatusOr<TPRelation> rel =
          MakeUniformWorkload(db_.manager(), name, options, &rng);
      ASSERT_TRUE(rel.ok()) << rel.status().ToString();
      ASSERT_TRUE(db_.Register(std::move(*rel)).ok());
    }
  }

  TPDatabase db_;
};

TEST(TraceContextTest, SpansNestAndParentsResolve) {
  TraceContext trace(7);
  EXPECT_EQ(trace.trace_id(), 7u);
  const uint64_t outer = trace.StartSpan("outer");
  const uint64_t inner = trace.StartSpan("inner");
  trace.EndSpan(inner);
  const uint64_t sibling = trace.StartSpan("sibling");
  trace.EndSpan(sibling);
  trace.EndSpan(outer);
  ASSERT_EQ(trace.spans().size(), 3u);
  EXPECT_EQ(trace.spans()[outer - 1].parent, 0u);
  EXPECT_EQ(trace.spans()[inner - 1].parent, outer);
  EXPECT_EQ(trace.spans()[sibling - 1].parent, outer);
  EXPECT_TRUE(trace.PlanSpans().empty());
}

TEST(TraceContextTest, ChromeJsonEscapesAndEmbedsPlan) {
  TraceContext trace(42);
  TraceSpan span;
  span.name = "scan \"r\"";
  span.detail = "line\nbreak";
  span.rows = 5;
  span.plan_node = true;
  trace.AddSpan(span);
  const std::string json = trace.ToChromeJson("Physical plan\n  Scan r");
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"cat\":\"plan\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\":5"), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":42"), std::string::npos);
  // Raw quotes and newlines must never survive into the JSON text.
  EXPECT_NE(json.find("scan \\\"r\\\""), std::string::npos) << json;
  EXPECT_NE(json.find("line\\nbreak"), std::string::npos) << json;
  EXPECT_NE(json.find("\"physical_plan\":\"Physical plan\\n  Scan r\""),
            std::string::npos)
      << json;
}

TEST_F(TraceTest, PlanSpansMatchExplainTreeNodeForNode) {
  Session session(&db_);
  const std::vector<std::string> queries = {
      "SELECT * FROM r WHERE key < 40",
      "SELECT * FROM r INNER JOIN s ON key WHERE key < 60 ORDER BY key",
      "r UNION s",
  };
  for (const std::string& sql : queries) {
    StatusOr<Session::TraceResult> traced = session.Trace(sql, 9);
    ASSERT_TRUE(traced.ok()) << sql << ": " << traced.status().ToString();
    const std::vector<uint64_t> expected =
        ActualRowsInPlanText(traced->physical_plan);
    ASSERT_FALSE(expected.empty()) << traced->physical_plan;
    const std::vector<const TraceSpan*> plan_spans = traced->trace.PlanSpans();
    ASSERT_EQ(plan_spans.size(), expected.size())
        << sql << "\n" << traced->physical_plan;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(plan_spans[i]->rows, expected[i]) << sql << " node " << i;
      // Each plan span's detail is the node's Label(), which the Explain
      // rendering prints verbatim on the matching line.
      EXPECT_NE(traced->physical_plan.find(plan_spans[i]->detail),
                std::string::npos)
          << plan_spans[i]->detail;
    }
    // The phase skeleton is present and the plan spans hang under execute.
    const std::vector<TraceSpan>& spans = traced->trace.spans();
    ASSERT_GE(spans.size(), 4u);
    EXPECT_EQ(spans[0].name, "query");
    EXPECT_EQ(spans[1].name, "parse");
    uint64_t execute_id = 0;
    for (const TraceSpan& span : spans)
      if (span.name == "execute") execute_id = span.id;
    ASSERT_NE(execute_id, 0u);
    EXPECT_EQ(plan_spans.front()->parent, execute_id);
  }
}

/// Registers two uniform relations "r" and "s" of `num_tuples` each — the
/// TraceTest fixture's shape, with the history stretched in proportion so
/// the tuple density stays the same.
void RegisterUniformPair(TPDatabase* db, int64_t num_tuples) {
  Random rng(123);
  UniformWorkloadOptions options;
  options.num_tuples = num_tuples;
  options.num_facts = 60;
  options.history_length = 1500 * std::max<int64_t>(1, num_tuples / 400);
  options.gap_probability = 0.3;
  for (const char* name : {"r", "s"}) {
    StatusOr<TPRelation> rel =
        MakeUniformWorkload(db->manager(), name, options, &rng);
    ASSERT_TRUE(rel.ok()) << rel.status().ToString();
    ASSERT_TRUE(db->Register(std::move(*rel)).ok());
  }
}

/// Traces `sql` and checks the node-for-node invariant: every rendered
/// plan line carries actuals, and the plan spans match those actuals in
/// count and, element-wise, in rows. Returns the physical-plan rendering.
std::string ExpectSpansMatchActuals(const Session& session,
                                    const std::string& sql,
                                    const std::string& where) {
  StatusOr<Session::TraceResult> traced = session.Trace(sql);
  EXPECT_TRUE(traced.ok()) << where << sql << ": "
                           << traced.status().ToString();
  if (!traced.ok()) return "";
  const std::string& plan = traced->physical_plan;
  const std::vector<uint64_t> expected = ActualRowsInPlanText(plan);
  EXPECT_EQ(static_cast<size_t>(std::count(plan.begin(), plan.end(), '\n')),
            expected.size())
      << where << sql << ": a plan node without actuals\n" << plan;
  const std::vector<const TraceSpan*> spans = traced->trace.PlanSpans();
  EXPECT_EQ(spans.size(), expected.size()) << where << sql << "\n" << plan;
  for (size_t i = 0; i < std::min(spans.size(), expected.size()); ++i)
    EXPECT_EQ(spans[i]->rows, expected[i]) << where << sql << " node " << i;
  return plan;
}

// The invariant above on every execution route: the 400-tuple fixture (an
// exchange the mode pass plans from estimates, whose region then runs
// serially because the actual input is below min_parallel_rows), inputs
// large enough for the parallel drivers (warm batch, warm row, cold batch,
// the batch-aggregate prefix), the top-k path with an exchange over its
// stages, and the serial planner.
TEST_F(TraceTest, EveryNodeReportsActualsOnEveryRoute) {
  constexpr int64_t kLargeTuples = 4000;
  ASSERT_GE(static_cast<size_t>(kLargeTuples),
            SessionOptions{}.min_parallel_rows);
  TPDatabase large;
  RegisterUniformPair(&large, kLargeTuples);
  ASSERT_FALSE(HasFatalFailure());
  // The same relations served from columnar segments (several per
  // relation, so the cold morsel driver has work to split).
  const std::string path =
      ::testing::TempDir() + "/trace_test_every_node_actuals.tpdb";
  storage::SnapshotOptions snapshot;
  snapshot.segment_rows = 512;
  ASSERT_TRUE(large.SaveSnapshot(path, snapshot).ok());
  TPDatabase cold;
  const Status loaded = cold.LoadSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();

  const std::vector<std::string> queries = {
      "SELECT * FROM r WHERE key < 40",
      "SELECT * FROM r INNER JOIN s ON key WHERE key < 60 ORDER BY key",
      "SELECT key, COUNT(*) AS n FROM r WHERE key < 40 GROUP BY key",
      "SELECT * FROM r WHERE key < 40 ORDER BY _prob DESC LIMIT 5",
  };
  struct Fixture {
    const char* name;
    TPDatabase* db;
    bool parallel_route;  ///< inputs reach min_parallel_rows
  };
  for (const Fixture& fixture :
       {Fixture{"400 tuples", &db_, false},
        Fixture{"4000 tuples", &large, true},
        Fixture{"4000 tuples cold", &cold, true}}) {
    for (const int parallelism : {4, 1}) {
      for (const bool row_only : {false, true}) {
        SessionOptions options;
        options.parallelism = parallelism;
        if (row_only) options.vectorize = false;
        const Session session(fixture.db, options);
        const std::string where =
            std::string(fixture.name) + ", parallelism " +
            std::to_string(parallelism) + (row_only ? ", row" : "") + ": ";
        bool saw_exchange = false;
        bool saw_summed = false;
        for (const std::string& sql : queries) {
          const std::string plan = ExpectSpansMatchActuals(session, sql, where);
          saw_exchange |= plan.find("Exchange[") != std::string::npos;
          saw_summed |= plan.find("summed over") != std::string::npos;
        }
        // The runs exercise what they claim to: exchanges wherever there
        // are workers, the morsel drivers wherever the inputs are large.
        EXPECT_EQ(saw_exchange, parallelism > 1) << where;
        EXPECT_EQ(saw_summed, parallelism > 1 && fixture.parallel_route)
            << where;
      }
    }
  }
}

TEST_F(TraceTest, TraceRowsMatchUntracedQuery) {
  Session session(&db_);
  const std::string sql = "SELECT * FROM r WHERE key < 25";
  StatusOr<TPRelation> plain = session.Query(sql);
  ASSERT_TRUE(plain.ok());
  StatusOr<Session::TraceResult> traced = session.Trace(sql);
  ASSERT_TRUE(traced.ok());
  EXPECT_EQ(traced->rows, plain->size());
  const std::string tree = traced->trace.ToTreeString();
  EXPECT_NE(tree.find("query"), std::string::npos) << tree;
  EXPECT_NE(tree.find("ms"), std::string::npos);
}

TEST_F(TraceTest, SlowQueryLogCountsWhenThresholdCrossed) {
  Counter* slow = MetricsRegistry::Default().counter(
      "tpdb_engine_slow_queries_total", "engine", "");
  const uint64_t before = slow->Value();
  SlowQueryLog::SetThresholdMs(0.0);  // every finished query is "slow"
  Session session(&db_);
  ASSERT_TRUE(session.Query("SELECT * FROM r WHERE key < 10").ok());
  SlowQueryLog::SetThresholdMs(-1.0);  // back to disabled
  if (kMetricsCompiledIn)
    EXPECT_GT(slow->Value(), before);
  else
    EXPECT_EQ(slow->Value(), before);
  // Disabled again: no further counting.
  const uint64_t after = slow->Value();
  ASSERT_TRUE(session.Query("SELECT * FROM r WHERE key < 10").ok());
  EXPECT_EQ(slow->Value(), after);
}

}  // namespace
}  // namespace tpdb::obs
