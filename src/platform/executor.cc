#include "platform/executor.h"

#include <utility>

#include "common/parallel_for.h"
#include "common/timer.h"
#include "platform/params.h"

namespace cyclerank {

void Executor::Execute(const std::string& task_id, const TaskSpec& spec,
                       const std::atomic<bool>* cancelled,
                       TaskResult* outcome, const std::string& cache_key) {
  WallTimer timer;
  datastore_->AppendLog(task_id, "task accepted: " + spec.ToString());

  if (cancelled != nullptr && cancelled->load(std::memory_order_relaxed)) {
    datastore_->AppendLog(task_id, "task cancelled before start");
    TaskResult result;
    result.task_id = task_id;
    result.spec = spec;
    result.status = Status::Cancelled("cancelled before start");
    result.seconds = timer.ElapsedSeconds();
    if (outcome != nullptr) *outcome = result;
    // Store the result before the terminal transition (like every other
    // path here): a waiter woken by kCancelled must find the result stored.
    datastore_->PutResult(std::move(result));
    (void)status_->SetState(task_id, TaskState::kCancelled);
    return;
  }

  Result<TaskResult> run = Run(task_id, spec, cancelled);
  if (run.ok()) {
    TaskResult result = std::move(run).value();
    result.seconds = timer.ElapsedSeconds();
    datastore_->AppendLog(
        task_id, "completed in " + std::to_string(result.seconds) + "s, " +
                     std::to_string(result.ranking.size()) + " ranked nodes");
    if (outcome != nullptr) *outcome = result;
    // Publish to the result cache before the terminal state transition:
    // a waiter woken by kCompleted must already find the result cached.
    if (!cache_key.empty()) result_cache().Put(cache_key, result);
    datastore_->PutResult(std::move(result));
    (void)status_->SetState(task_id, TaskState::kCompleted);
    return;
  }

  const Status error = run.status();
  datastore_->AppendLog(task_id, "failed: " + error.ToString());
  TaskResult result;
  result.task_id = task_id;
  result.spec = spec;
  result.status = error;
  result.seconds = timer.ElapsedSeconds();
  if (outcome != nullptr) *outcome = result;
  datastore_->PutResult(std::move(result));
  (void)status_->SetState(task_id,
                          error.code() == StatusCode::kCancelled
                              ? TaskState::kCancelled
                              : TaskState::kFailed);
}

void Executor::Deliver(const std::string& task_id, const TaskSpec& spec,
                       const TaskResult& outcome, const std::string& via) {
  WallTimer timer;
  datastore_->AppendLog(task_id, "task accepted: " + spec.ToString());
  TaskResult result = outcome;
  result.task_id = task_id;
  result.spec = spec;
  const TaskState terminal =
      outcome.status.ok() ? TaskState::kCompleted
      : outcome.status.code() == StatusCode::kCancelled ? TaskState::kCancelled
                                                        : TaskState::kFailed;
  result.seconds = timer.ElapsedSeconds();
  datastore_->AppendLog(
      task_id, "served via " + via + " in " +
                   std::to_string(result.seconds) + "s (computation took " +
                   std::to_string(outcome.seconds) + "s), outcome " +
                   std::string(TaskStateToString(terminal)));
  datastore_->PutResult(std::move(result));
  (void)status_->SetState(task_id, terminal);
}

Result<TaskResult> Executor::Run(const std::string& task_id,
                                 const TaskSpec& spec,
                                 const std::atomic<bool>* cancelled) {
  CYCLERANK_RETURN_NOT_OK(status_->SetState(task_id, TaskState::kFetching));
  datastore_->AppendLog(task_id, "fetching dataset '" + spec.dataset + "'");
  // This GraphPtr pins the immutable snapshot for the task's whole run: a
  // concurrent graph-store eviction can drop the store's reference but
  // never the graph under the kernel — results stay bit-identical to an
  // eviction-free run, and the memory is freed when the pin drops.
  CYCLERANK_ASSIGN_OR_RETURN(GraphPtr graph,
                             datastore_->GetDataset(spec.dataset));
  datastore_->AppendLog(
      task_id, "pinned dataset snapshot '" + spec.dataset + "' (" +
                   std::to_string(graph->MemoryBytes()) +
                   " bytes) for the task's lifetime");

  CYCLERANK_ASSIGN_OR_RETURN(auto algorithm, registry_->Find(spec.algorithm));
  CYCLERANK_ASSIGN_OR_RETURN(AlgorithmRequest request,
                             BuildRequest(*graph, spec.params));
  // Deployment-level default thread budget; an explicit threads= parameter
  // always wins. Execution-only: kernels are bit-identical at any count,
  // so this never touches the task's fingerprint or cached result.
  if (default_threads_ != 0 && !spec.params.Has("threads")) {
    request.num_threads = default_threads_;
  }
  if (algorithm->requires_reference() && request.reference == kInvalidNode) {
    return Status::InvalidArgument("algorithm '" + spec.algorithm +
                                   "' requires a reference node (source=...)");
  }

  if (cancelled != nullptr && cancelled->load(std::memory_order_relaxed)) {
    return Status::Cancelled("cancelled before computation");
  }

  CYCLERANK_RETURN_NOT_OK(status_->SetState(task_id, TaskState::kRunning));
  // Kernel-level fan-out runs on the same process-wide pool the Scheduler
  // dispatches tasks on, so the two levels of parallelism share one
  // substrate instead of oversubscribing the machine.
  datastore_->AppendLog(
      task_id, "running '" + spec.algorithm + "' on " +
                   std::to_string(graph->num_nodes()) + " nodes / " +
                   std::to_string(graph->num_edges()) + " edges with " +
                   std::to_string(ResolveThreadCount(request.num_threads)) +
                   " kernel thread(s) on the shared pool");
  CYCLERANK_ASSIGN_OR_RETURN(RankedList ranking,
                             algorithm->Run(*graph, request));

  TaskResult result;
  result.task_id = task_id;
  result.spec = spec;
  result.status = Status::OK();
  result.ranking = std::move(ranking);
  return result;
}

}  // namespace cyclerank
