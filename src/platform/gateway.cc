#include "platform/gateway.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/mutex.h"
#include "platform/params.h"

namespace cyclerank {

ApiGateway::ApiGateway(Datastore* datastore, AlgorithmRegistry* registry,
                       const PlatformOptions& options)
    : options_(options),
      datastore_(datastore),
      executor_(datastore, registry, &status_, options),
      scheduler_(&executor_, options),
      uuid_(options.uuid_seed),
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

  std::string comparison_id;
  Comparison comparison;
  comparison.cancelled = std::make_shared<std::atomic<bool>>(false);
  comparison.specs = query_set.tasks;
  {
    MutexLock lock(mu_);
    comparison_id = uuid_.Generate();
    for (size_t i = 0; i < query_set.tasks.size(); ++i) {
      comparison.task_ids.push_back(comparison_id + "/" + std::to_string(i));
    }
    comparisons_.emplace(comparison_id, comparison);
  }

  // Track before enqueueing so a status poll can never miss a task.
  Status error;
  size_t tracked = 0;
  size_t enqueued = 0;
  for (; tracked < comparison.task_ids.size(); ++tracked) {
    error = status_.Track(comparison.task_ids[tracked]);
    if (!error.ok()) break;
  }
  // Enqueue longest estimated kernel first (Graham's LPT list scheduling):
  // the set is done when its slowest task is, so that task must not wait
  // behind the others for a worker. Unseen algorithms estimate +infinity
  // and sort first; ties keep the request order.
  const std::vector<double> cost = executor_.EstimateKernelSeconds(algorithms);
  std::vector<size_t> order(cost.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&cost](size_t a, size_t b) { return cost[a] > cost[b]; });
  if (error.ok()) {
    for (; enqueued < order.size(); ++enqueued) {
      const size_t i = order[enqueued];
      const TaskSpec& spec = query_set.tasks[i];
      // No generation means the dataset currently resolves to nothing: the
      // task runs un-keyed (no cache serve, no coalescing, no publish), so
      // a result that only exists because an upload raced in can never be
      // served to later submissions that should answer Expired/NotFound.
      const std::optional<uint64_t> generation =
          datastore_->DatasetCacheGeneration(spec.dataset);
      error = scheduler_.Enqueue(
          comparison.task_ids[i], spec, comparison.cancelled,
          generation.has_value()
              ? TaskFingerprint(spec.dataset, *generation, spec.algorithm,
                                spec.params)
              : std::string());
      if (!error.ok()) break;
    }
  }
  if (error.ok()) return comparison_id;

  // Roll back the partial submission: a task left kPending with no executor
  // ever going to run it would hang WaitForCompletion forever. Tasks that
  // did reach the scheduler are cancelled best-effort — the caller only
  // gets the error, never the comparison id, so nobody could cancel (or
  // observe) them afterwards. Tracked but never-enqueued tasks become
  // kFailed with a stored result carrying the submission error; if nothing
  // reached the scheduler, the comparison is erased entirely. Tracking
  // went in request order and enqueueing in `order`, so the never-enqueued
  // tasks are the tracked ones among `order`'s tail.
  comparison.cancelled->store(true, std::memory_order_relaxed);
  for (size_t k = enqueued; k < order.size(); ++k) {
    const size_t i = order[k];
    if (i >= tracked) continue;
    const std::string& task_id = comparison.task_ids[i];
    datastore_->AppendLog(task_id,
                          "submission rolled back: " + error.ToString());
    TaskResult failed;
    failed.task_id = task_id;
    failed.spec = query_set.tasks[i];
    failed.status = error;
    datastore_->PutResult(std::move(failed));
    (void)status_.SetState(task_id, TaskState::kFailed);
  }
  if (enqueued == 0) {
    MutexLock lock(mu_);
    comparisons_.erase(comparison_id);
  }
  return error;
}

Result<ComparisonStatus> ApiGateway::GetStatus(
    const std::string& comparison_id) const {
  std::vector<std::string> task_ids;
  {
    MutexLock lock(mu_);
    auto it = comparisons_.find(comparison_id);
    if (it == comparisons_.end()) {
      return Status::NotFound("gateway: comparison '" + comparison_id +
                              "' not found");
    }
    task_ids = it->second.task_ids;
  }
  ComparisonStatus status;
  status.comparison_id = comparison_id;
  status.task_ids = std::move(task_ids);
  CYCLERANK_ASSIGN_OR_RETURN(status.states,
                             status_.GetStates(status.task_ids));
  status.done = true;
  for (TaskState state : status.states) {
    switch (state) {
      case TaskState::kCompleted:
        ++status.completed;
        break;
      case TaskState::kFailed:
        ++status.failed;
        break;
      case TaskState::kCancelled:
        ++status.cancelled;
        break;
      default:
        status.done = false;
        break;
    }
  }
  return status;
}

Result<std::vector<TaskResult>> ApiGateway::GetResults(
    const std::string& comparison_id) const {
  CYCLERANK_ASSIGN_OR_RETURN(ComparisonStatus status,
                             GetStatus(comparison_id));
  std::vector<TaskSpec> specs;
  {
    MutexLock lock(mu_);
    auto it = comparisons_.find(comparison_id);
    if (it != comparisons_.end()) specs = it->second.specs;
  }
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
    if (i < specs.size()) entry.spec = specs[i];
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

Status ApiGateway::Cancel(const std::string& comparison_id) {
  MutexLock lock(mu_);
  auto it = comparisons_.find(comparison_id);
  if (it == comparisons_.end()) {
    return Status::NotFound("gateway: comparison '" + comparison_id +
                            "' not found");
  }
  it->second.cancelled->store(true, std::memory_order_relaxed);
  return Status::OK();
}

Result<bool> ApiGateway::WaitForCompletion(const std::string& comparison_id,
                                           double timeout_seconds) const {
  std::vector<std::string> task_ids;
  {
    MutexLock lock(mu_);
    auto it = comparisons_.find(comparison_id);
    if (it == comparisons_.end()) {
      return Status::NotFound("gateway: comparison '" + comparison_id +
                              "' not found");
    }
    task_ids = it->second.task_ids;
  }
  return status_.WaitUntilTerminal(task_ids, timeout_seconds);
}

}  // namespace cyclerank
