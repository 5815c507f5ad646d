#include "platform/gateway.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "platform/params.h"

namespace cyclerank {

ApiGateway::ApiGateway(Datastore* datastore, AlgorithmRegistry* registry,
                       const PlatformOptions& options)
    : options_(options),
      datastore_(datastore),
      status_(options.uuid_seed),
      executor_(datastore, registry, &status_, options),
      scheduler_(&executor_, options),
      registry_(registry) {}

Result<std::string> ApiGateway::SubmitQuerySet(const QuerySet& query_set) {
  if (query_set.tasks.empty()) {
    return Status::InvalidArgument("gateway: query set is empty");
  }
  if (options_.max_tasks_per_submission != 0 &&
      query_set.tasks.size() > options_.max_tasks_per_submission) {
    return Status::InvalidArgument(
        "gateway: query set has " + std::to_string(query_set.tasks.size()) +
        " tasks, above the admission limit of " +
        std::to_string(options_.max_tasks_per_submission) +
        " (max_tasks_per_submission)");
  }
  std::vector<std::string> algorithms;
  for (const TaskSpec& spec : query_set.tasks) {
    CYCLERANK_ASSIGN_OR_RETURN(auto algorithm, registry_->Find(spec.algorithm));
    algorithms.emplace_back(algorithm->name());
  }

  // Track before enqueueing so a status poll can never miss a task.
  CYCLERANK_ASSIGN_OR_RETURN(const StatusService::Tracked tracked,
                             status_.Track(query_set.tasks));
  // Enqueue longest estimated kernel first (Graham's LPT list scheduling):
  // the set is done when its slowest task is, so that task must not wait
  // behind the others for a worker. Unseen algorithms estimate +infinity
  // and sort first; ties keep the request order.
  const std::vector<double> cost = executor_.EstimateKernelSeconds(algorithms);
  std::vector<size_t> order(cost.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&cost](size_t a, size_t b) { return cost[a] > cost[b]; });
  Status error;
  size_t enqueued = 0;
  for (; enqueued < order.size(); ++enqueued) {
    const size_t i = order[enqueued];
    const TaskSpec& spec = query_set.tasks[i];
    // No generation means the dataset currently resolves to nothing: the
    // task runs un-keyed (no cache serve, no coalescing, no publish), so a
    // result that only exists because an upload raced in can never be
    // served to later submissions that should answer Expired/NotFound.
    const std::optional<uint64_t> generation =
        datastore_->DatasetCacheGeneration(spec.dataset);
    error = scheduler_.Enqueue(
        tracked.task_ids[i], spec, tracked.cancelled,
        generation.has_value()
            ? TaskFingerprint(spec.dataset, *generation, spec.algorithm,
                              spec.params)
            : std::string());
    if (!error.ok()) break;
  }
  if (error.ok()) return tracked.comparison_id;

  // Roll back the partial submission: a task left kPending with no executor
  // ever going to run it would hang WaitForCompletion forever. Tasks that
  // did reach the scheduler are cancelled best-effort — the caller only
  // gets the error, never the comparison id, so nobody could cancel (or
  // observe) them afterwards. Never-enqueued tasks, `order`'s tail, become
  // kFailed with a stored result carrying the submission error; if nothing
  // reached the scheduler, the comparison is erased entirely.
  tracked.cancelled->store(true, std::memory_order_relaxed);
  for (size_t k = enqueued; k < order.size(); ++k) {
    const size_t i = order[k];
    const std::string& task_id = tracked.task_ids[i];
    datastore_->AppendLog(task_id,
                          "submission rolled back: " + error.ToString());
    TaskResult failed;
    failed.task_id = task_id;
    failed.spec = query_set.tasks[i];
    failed.status = error;
    datastore_->PutResult(std::move(failed));
    (void)status_.SetState(task_id, TaskState::kFailed);
  }
  if (enqueued == 0) status_.Erase(tracked.comparison_id);
  return error;
}

Result<std::vector<TaskResult>> ApiGateway::GetResults(
    const std::string& comparison_id) const {
  std::vector<TaskSpec> specs;
  CYCLERANK_ASSIGN_OR_RETURN(const ComparisonStatus status,
                             status_.GetStatus(comparison_id, &specs));
  std::vector<TaskResult> results;
  for (size_t i = 0; i < status.task_ids.size(); ++i) {
    if (!IsTerminal(status.states[i])) continue;
    auto result = datastore_->GetResult(status.task_ids[i]);
    if (result.ok()) {
      results.push_back(std::move(result).value());
      continue;
    }
    // Terminal but no stored result: surface the task's state instead of
    // silently dropping the entry, so callers can tell "not finished yet"
    // (absent) from "finished without a result" (an error entry). A result
    // evicted by the datastore's retention bound keeps its Expired status
    // verbatim — that is an answer, not an internal error.
    TaskResult entry;
    entry.task_id = status.task_ids[i];
    entry.spec = specs[i];
    if (result.status().code() == StatusCode::kExpired) {
      entry.status = result.status();
    } else {
      const std::string detail =
          "task '" + status.task_ids[i] + "' is " +
          std::string(TaskStateToString(status.states[i])) +
          " but no result was recorded (" + result.status().message() + ")";
      entry.status = status.states[i] == TaskState::kCancelled
                         ? Status::Cancelled(detail)
                         : Status::Internal(detail);
    }
    results.push_back(std::move(entry));
  }
  return results;
}

}  // namespace cyclerank
