#include "gate.h"

#include <map>

#include "lineage/probability.h"
#include "tests/reference/reference.h"

namespace perfbench {

using tpdb::LineageRef;
using tpdb::TPRelation;
using tpdb::TPTuple;
using tpdb::testing::SnapshotTuple;

TPRelation SnapshotRelation(const TPRelation& rel, tpdb::TimePoint t) {
  TPRelation out(rel.name(), rel.fact_schema(), rel.manager());
  for (size_t i = 0; i < rel.size(); ++i) {
    const TPTuple& tuple = rel.tuple(i);
    if (!tuple.interval.Contains(t)) continue;
    const tpdb::Status st =
        out.AppendDerived(tuple.fact, tuple.interval, tuple.lineage);
    TPDB_CHECK(st.ok()) << st.ToString();
  }
  return out;
}

tpdb::TimePoint SampleTimePoint(const TPRelation& r, const TPRelation& s,
                                tpdb::Random* rng) {
  const size_t total = r.size() + s.size();
  TPDB_CHECK(total > 0) << "no tuples to sample a time point from";
  const auto pick = static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(total) - 1));
  const tpdb::Interval& interval =
      pick < r.size() ? r.tuple(pick).interval
                      : s.tuple(pick - r.size()).interval;
  return rng->Uniform(interval.start, interval.end - 1);
}

std::string CheckJoinAt(tpdb::TPJoinKind kind, const TPRelation& r,
                        const TPRelation& s, const tpdb::JoinCondition& theta,
                        const TPRelation& result, tpdb::TimePoint t) {
  const TPRelation r_t = SnapshotRelation(r, t);
  const TPRelation s_t = SnapshotRelation(s, t);
  return tpdb::testing::CompareSnapshots(
      tpdb::testing::ReferenceJoinSnapshot(kind, r_t, s_t, theta, t),
      tpdb::testing::SnapshotOf(result, t));
}

std::string CheckSetOpAt(tpdb::TPSetOpKind kind, const TPRelation& r,
                         const TPRelation& s, const TPRelation& result,
                         tpdb::TimePoint t) {
  tpdb::LineageManager* manager = r.manager();
  tpdb::ProbabilityEngine prob(manager);
  // Per fact: the lineage of its r and s tuple valid at t (null if none).
  std::map<tpdb::Row, std::pair<LineageRef, LineageRef>,
           bool (*)(const tpdb::Row&, const tpdb::Row&)>
      facts([](const tpdb::Row& a, const tpdb::Row& b) {
        return tpdb::CompareRows(a, b) < 0;
      });
  for (size_t i = 0; i < r.size(); ++i)
    if (r.tuple(i).interval.Contains(t))
      facts[r.tuple(i).fact].first = r.tuple(i).lineage;
  for (size_t i = 0; i < s.size(); ++i)
    if (s.tuple(i).interval.Contains(t))
      facts[s.tuple(i).fact].second = s.tuple(i).lineage;

  std::vector<SnapshotTuple> expected;
  for (const auto& [fact, lineages] : facts) {
    const LineageRef lr = lineages.first;
    const LineageRef ls = lineages.second;
    LineageRef out;
    switch (kind) {
      case tpdb::TPSetOpKind::kUnion:
        out = lr.is_null() ? ls
              : ls.is_null() ? lr
                             : manager->Or(lr, ls);
        break;
      case tpdb::TPSetOpKind::kIntersect:
        if (!lr.is_null() && !ls.is_null()) out = manager->And(lr, ls);
        break;
      case tpdb::TPSetOpKind::kDifference:
        if (!lr.is_null())
          out = ls.is_null() ? lr : manager->AndNot(lr, ls);
        break;
    }
    if (!out.is_null()) expected.push_back({fact, prob.Probability(out)});
  }
  return tpdb::testing::CompareSnapshots(std::move(expected),
                                         tpdb::testing::SnapshotOf(result, t));
}

}  // namespace perfbench
