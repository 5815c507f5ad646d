#ifndef CYCLERANK_PLATFORM_RESULT_IO_H_
#define CYCLERANK_PLATFORM_RESULT_IO_H_

#include <string>
#include <vector>

#include "graph/graph.h"
#include "platform/gateway.h"
#include "platform/spill_tier.h"
#include "platform/task.h"

namespace cyclerank {

/// Serialization of task results — the demo's datastore persists "results
/// and logs produced by the system" (§III) and serves them back through
/// the comparison permalink. These helpers produce the two interchange
/// forms an embedding application needs: JSON for APIs and CSV for
/// spreadsheets.

/// Options for result serialization.
struct ResultExportOptions {
  /// Truncate rankings to this many entries (0 = all).
  size_t top_k = 0;

  /// Resolve node ids to labels through this graph (may be null: ids are
  /// emitted as numbers).
  const Graph* graph = nullptr;

  /// Pretty-print JSON with two-space indentation.
  bool pretty = false;
};

/// Escapes `s` for embedding in a JSON string literal (quotes, control
/// characters; UTF-8 passes through).
std::string JsonEscape(std::string_view s);

/// One task result as a JSON object:
/// `{"task_id": ..., "dataset": ..., "algorithm": ..., "params": {...},
///   "status": ..., "seconds": ..., "ranking": [{"node": ..., "score":
///   ...}, ...]}`.
std::string TaskResultToJson(const TaskResult& result,
                             const ResultExportOptions& options = {});

/// A whole comparison (permalink payload): comparison id, per-task states
/// and results.
std::string ComparisonToJson(const ComparisonStatus& status,
                             const std::vector<TaskResult>& results,
                             const ResultExportOptions& options = {});

/// One ranking as CSV: `rank,node,score` rows with a header.
std::string RankingToCsv(const RankedList& ranking,
                         const ResultExportOptions& options = {});

/// Compact binary encoding of a `TaskResult` — the storage layer's
/// spill-to-disk format (little-endian fixed-width fields; scores travel as
/// IEEE-754 bit patterns, never through text). Unlike the JSON/CSV exports
/// above it is lossless: `DeserializeTaskResult(SerializeTaskResult(r))`
/// reproduces `r` bit-identically, including the status code/message and
/// every ranking score.
std::string SerializeTaskResult(const TaskResult& result);

/// Decodes a `SerializeTaskResult` buffer; a truncated or corrupted buffer
/// yields `kParseError`.
Result<TaskResult> DeserializeTaskResult(std::string_view bytes);

/// Wraps `result` as a deferred spill payload: `SerializeTaskResult` runs
/// on the spill tier's flush thread, not on the evicting caller. The result is moved in and owned by the payload.
SpillPayloadPtr MakeResultSpillPayload(TaskResult result);

}  // namespace cyclerank

#endif  // CYCLERANK_PLATFORM_RESULT_IO_H_
