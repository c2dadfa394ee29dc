// Pipeline instrumentation: per-operator row counts and wall time, in the
// spirit of EXPLAIN ANALYZE. Wrap the interesting nodes of a plan with
// Instrument(...) and render the collected stats after execution — used to
// verify the "pipelined, single-pass" claims of the window plans (e.g.
// LAWAU's output row count equals its input plus the gaps it created).
#ifndef TPDB_ENGINE_EXPLAIN_H_
#define TPDB_ENGINE_EXPLAIN_H_

#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/operator.h"

namespace tpdb::obs {
class TraceContext;
}  // namespace tpdb::obs

namespace tpdb {

/// Collected per-node execution statistics.
struct NodeStats {
  std::string label;
  uint64_t rows = 0;        ///< rows produced (true Next() calls)
  uint64_t open_calls = 0;
  double seconds = 0.0;     ///< time spent inside this node's Next()
                            ///< (inclusive of children)
  /// How `seconds` adds up. false: the wall time of the node's one serial
  /// instance. true: the node ran once per morsel inside a parallel region
  /// and `seconds` (like `rows` and `open_calls`, one per instance) is
  /// summed over those instances — worker time, which can exceed the
  /// query's wall time.
  bool summed_worker_time = false;
};

/// Per-worker aggregates of the parallel runtime (exec/): how many morsel
/// tasks each pool worker ran for this query, the rows they produced, and
/// the wall time they spent inside tasks.
struct WorkerStats {
  int worker = -1;          ///< pool worker index; -1 = the session thread
  uint64_t tasks = 0;
  uint64_t rows = 0;
  double seconds = 0.0;
};

/// Aggregates of the columnar cold read path (storage/): how many segments
/// the scans of a query touched vs. pruned via zone maps, the bytes of
/// mapped snapshot they read, and the time spent decoding columns to rows.
struct StorageStats {
  uint64_t segments_scanned = 0;
  uint64_t segments_skipped = 0;  ///< pruned by zone maps, never decoded
  /// Segments pruned compressed-domain: admitted by the zone map but
  /// rejected by the exact min/max of a packed chunk's block header,
  /// without decompressing a value.
  uint64_t chunks_skipped_compressed = 0;
  uint64_t rows_decoded = 0;
  uint64_t bytes_mapped = 0;      ///< encoded bytes of the scanned segments
  /// Compressed bytes among the scanned segments' chunks (their
  /// decompression time is part of decode_seconds).
  uint64_t compressed_bytes = 0;
  double decode_seconds = 0.0;

  bool Any() const {
    return segments_scanned > 0 || segments_skipped > 0 ||
           chunks_skipped_compressed > 0 || rows_decoded > 0;
  }
  void Merge(const StorageStats& other);
};

/// Aggregates of the vectorized execution path (engine/vector/): batches
/// produced by the batch sources, rows entering the batch pipelines, rows
/// surviving to the sink, and rows short-circuited by selection vectors —
/// deselected by batch filters/thresholds/limits without ever being
/// materialized as rows.
struct VectorStats {
  uint64_t batches = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_emitted = 0;
  uint64_t rows_pruned = 0;

  bool Any() const { return batches > 0 || rows_scanned > 0; }
  void Merge(const VectorStats& other);
};

/// Registry the instrumented wrappers report into. Must outlive the plan.
class ExecStats {
 public:
  /// Registers a node; returns its slot (stable for the registry's life).
  NodeStats* AddNode(std::string label);

  const std::vector<std::unique_ptr<NodeStats>>& nodes() const {
    return nodes_;
  }

  /// Records one worker's aggregate for the query (planner reports these
  /// after a parallel execution).
  void AddWorker(const WorkerStats& worker);

  const std::vector<WorkerStats>& workers() const { return workers_; }

  /// Merges one cold scan's counters into the query-wide storage section.
  void AddStorage(const StorageStats& storage);

  const StorageStats& storage() const { return storage_; }

  /// Merges one batch pipeline's counters into the vectorized section.
  void AddVector(const VectorStats& vector);

  const VectorStats& vector() const { return vector_; }

  /// Rendered physical tree of the executed plan, with per-node cost
  /// estimates next to actuals (set by the planner after execution;
  /// TPDatabase::Explain prints it as its own section).
  void set_physical_plan(std::string plan) {
    physical_plan_ = std::move(plan);
  }
  const std::string& physical_plan() const { return physical_plan_; }

  /// Optional per-query trace (obs/trace.h). When set, the planner records
  /// optimize/execute phase spans and mirrors the executed physical tree —
  /// with these NodeStats as payloads — into it. Not owned; must outlive
  /// the execution.
  void set_trace(obs::TraceContext* trace) { trace_ = trace; }
  obs::TraceContext* trace() const { return trace_; }

  /// Multi-line "label: rows=… time=…" rendering, in registration order
  /// (register bottom-up to read the pipeline top-down), followed by a
  /// per-worker section when the query ran on the parallel runtime, a
  /// storage section when any scan was served from columnar segments, and
  /// a vectorized section when any pipeline ran batch-at-a-time.
  std::string ToString() const;

 private:
  std::vector<std::unique_ptr<NodeStats>> nodes_;
  std::vector<WorkerStats> workers_;
  StorageStats storage_;
  VectorStats vector_;
  std::string physical_plan_;
  obs::TraceContext* trace_ = nullptr;
};

/// Wraps `child`, counting its rows and timing its Next() calls into a
/// fresh node of `stats`.
OperatorPtr Instrument(std::string label, OperatorPtr child,
                       ExecStats* stats);

/// Same, reporting into a pre-registered node — used by the physical-plan
/// executors, which share one NodeStats slot between a plan node and its
/// lowered operator.
OperatorPtr Instrument(NodeStats* node, OperatorPtr child);

}  // namespace tpdb

#endif  // TPDB_ENGINE_EXPLAIN_H_
