#ifndef CYCLERANK_PLATFORM_EXECUTOR_H_
#define CYCLERANK_PLATFORM_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "platform/datastore.h"
#include "platform/platform_options.h"
#include "platform/registry.h"
#include "platform/status_service.h"
#include "platform/task.h"

namespace cyclerank {

/// One computational node (Fig. 1): fetches the dataset from the
/// datastore, resolves the algorithm, runs it, and writes result and logs
/// back — steps 2–4 of the paper's request flow (§III).
///
/// The dataset fetched at task start is an immutable snapshot *pinned*
/// (via its `GraphPtr`) for the task's whole run: a concurrent graph-store
/// eviction drops only the store's reference, never the memory a running
/// kernel reads — the task completes bit-identically and the graph is
/// freed when the pin drops.
///
/// `Execute` is synchronous; the `Scheduler` runs it on worker threads.
/// The executor is stateless apart from its wiring — it owns no mutex and
/// no mutable fields, so it carries no thread-safety annotations: every
/// shared structure it touches (datastore stores, status service, result
/// cache) is locked by its owner. One instance can be shared by any number
/// of threads.
class Executor {
 public:
  /// All dependencies are borrowed and must outlive the executor.
  /// `options.default_threads` is applied to tasks that carry no
  /// `threads=` parameter of their own.
  Executor(Datastore* datastore, AlgorithmRegistry* registry,
           StatusService* status, const PlatformOptions& options = {})
      : datastore_(datastore),
        registry_(registry),
        status_(status),
        default_threads_(options.default_threads) {}

  /// Runs `spec` as task `task_id`:
  ///   pending → fetching → running → completed | failed | cancelled.
  /// A failure at any stage is recorded as a failed `TaskResult` carrying
  /// the error status (the platform never throws). If `*cancelled` becomes
  /// true before the computation starts, the task ends in `kCancelled`.
  /// When `outcome` is non-null it receives a copy of the stored terminal
  /// result (the scheduler's single-flight layer fans it out to coalesced
  /// followers). A non-empty `cache_key` (a `TaskFingerprint`) publishes a
  /// successful result to the datastore's result cache *before* the task
  /// turns terminal, so anyone who observes `kCompleted` is guaranteed to
  /// find the result cached — pollers can never race past the insert.
  void Execute(const std::string& task_id, const TaskSpec& spec,
               const std::atomic<bool>* cancelled = nullptr,
               TaskResult* outcome = nullptr,
               const std::string& cache_key = {});

  /// Delivers an already-computed `outcome` as task `task_id` without
  /// running any kernel work: the result is rewritten onto this task's
  /// identity (id, spec, serve time), stored, and the task jumps straight to
  /// the matching terminal state. `via` names the shortcut for the task log
  /// ("result cache", "single-flight leader <id>").
  void Deliver(const std::string& task_id, const TaskSpec& spec,
               const TaskResult& outcome, const std::string& via);

  /// The completed-result cache this executor publishes into (the
  /// datastore's; the scheduler serves hits from the same instance).
  ResultCache& result_cache() const { return datastore_->result_cache(); }

 private:
  /// Runs the fallible part and returns the outcome.
  Result<TaskResult> Run(const std::string& task_id, const TaskSpec& spec,
                         const std::atomic<bool>* cancelled);

  Datastore* datastore_;
  AlgorithmRegistry* registry_;
  StatusService* status_;
  const uint32_t default_threads_;  ///< 0 = kernel default (whole pool)
};

}  // namespace cyclerank

#endif  // CYCLERANK_PLATFORM_EXECUTOR_H_
