#ifndef CYCLERANK_E2EBENCH_REFERENCE_H_
#define CYCLERANK_E2EBENCH_REFERENCE_H_

#include <string>

#include "common/result.h"
#include "graph/graph.h"
#include "platform/task.h"
#include "workloads.h"

namespace cyclerank {
namespace e2ebench {

/// `SerializeTaskResult` bytes with the per-serve fields (task id, wall
/// seconds) cleared: equal bytes mean an equal computed outcome.
std::string CanonicalBytes(TaskResult result);

/// The graph behind a dataset name of a `seed`'s stream: a catalog dataset,
/// or an upload (`UploadName`) parsed again from its generated text.
Result<GraphPtr> LoadStreamGraph(uint64_t seed, const std::string& name);

/// What an in-process `RelevanceAlgorithm::Run` of `task` on `graph`
/// returns, at the daemon's one kernel thread, as a `TaskResult`.
Result<TaskResult> ComputeReference(const Graph& graph, const TaskText& task);

}  // namespace e2ebench
}  // namespace cyclerank

#endif  // CYCLERANK_E2EBENCH_REFERENCE_H_
