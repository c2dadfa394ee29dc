// Correctness gate of the benchmark, run outside every timer: operator
// results are compared with the independent per-time-point evaluator of
// tests/reference (snapshot reducibility with exact possible-worlds
// probabilities) at sampled time points.
#ifndef TPDB_PERFBENCH_GATE_H_
#define TPDB_PERFBENCH_GATE_H_

#include <string>

#include "common/random.h"

#include "tp/operators.h"
#include "tp/overlap_join.h"
#include "tp/set_ops.h"
#include "tp/tp_relation.h"

namespace perfbench {

/// The tuples of `rel` valid at `t`, sharing `rel`'s lineage (the
/// reference evaluator scans its inputs per r tuple, so feeding it the
/// snapshot instead of the whole relation keeps the gate fast).
tpdb::TPRelation SnapshotRelation(const tpdb::TPRelation& rel,
                                  tpdb::TimePoint t);

/// A time point where the pair has data: inside the interval of a tuple
/// drawn uniformly from r ∪ s, so no check compares two empty snapshots.
tpdb::TimePoint SampleTimePoint(const tpdb::TPRelation& r,
                                const tpdb::TPRelation& s, tpdb::Random* rng);

/// Compares a join result at time point `t` with the reference join of
/// the input snapshots. Returns "" on agreement, else a diff.
std::string CheckJoinAt(tpdb::TPJoinKind kind, const tpdb::TPRelation& r,
                        const tpdb::TPRelation& s,
                        const tpdb::JoinCondition& theta,
                        const tpdb::TPRelation& result, tpdb::TimePoint t);

/// Same for a set operation: at `t` every fact holds at most one tuple per
/// input, so the expected lineage is λr ∨ λs, λr ∧ λs or λr ∧ ¬λs.
std::string CheckSetOpAt(tpdb::TPSetOpKind kind, const tpdb::TPRelation& r,
                         const tpdb::TPRelation& s,
                         const tpdb::TPRelation& result, tpdb::TimePoint t);

}  // namespace perfbench

#endif  // TPDB_PERFBENCH_GATE_H_
