#ifndef CYCLERANK_PLATFORM_GATEWAY_H_
#define CYCLERANK_PLATFORM_GATEWAY_H_

#include <string>
#include <utility>
#include <vector>

#include "platform/datastore.h"
#include "platform/platform_options.h"
#include "platform/registry.h"
#include "platform/scheduler.h"
#include "platform/status_service.h"
#include "platform/task.h"

namespace cyclerank {

/// The API gateway of Fig. 1: "the entry point for all incoming requests
/// from the Web UI", routing them to the computational nodes and serving
/// results back.
///
/// A submitted `QuerySet` becomes a *comparison* identified by a UUIDv4
/// permalink (as in Fig. 2's "Comparison id:"); each query becomes a task
/// `<comparison-id>/<index>`. Submission is asynchronous: poll
/// `GetStatus`, block with `WaitForCompletion`, then join the per-task
/// outcomes with `GetResults`. The comparison's one record — ids, task
/// states, specs, cancel flag — lives in the `StatusService`; the gateway
/// holds no lock of its own.
class ApiGateway {
 public:
  /// Dependencies are borrowed and must outlive the gateway. `options`
  /// carries every deployment knob of the stack (`num_workers` sizes the
  /// executor pool, `uuid_seed != 0` makes ids deterministic for tests,
  /// `max_tasks_per_submission` bounds query-set admission,
  /// `default_threads` is the kernel thread budget of tasks without a
  /// `threads=` of their own) — parse one from `key=value` text with
  /// `PlatformOptions::FromString` to configure a deployment without code
  /// changes. Storage budgets (`graph_store_bytes`, `result_cache_bytes`,
  /// `max_retained_results`) act where the `Datastore` is constructed;
  /// pass the same options object to both.
  explicit ApiGateway(Datastore* datastore, AlgorithmRegistry* registry,
                      const PlatformOptions& options = {});

  ~ApiGateway() { Shutdown(); }

  ApiGateway(const ApiGateway&) = delete;
  ApiGateway& operator=(const ApiGateway&) = delete;

  /// Validates and submits a query set; returns its comparison id.
  /// Validation is shallow (non-empty set, within the
  /// `max_tasks_per_submission` admission limit, known algorithm names) so
  /// bad requests fail synchronously; dataset and parameter errors surface
  /// as failed tasks, mirroring the demo's asynchronous error reporting.
  ///
  /// Tasks are enqueued longest estimated kernel first
  /// (`Executor::EstimateKernelSeconds`; algorithms never seen first, ties
  /// in request order), so the set's slowest task starts at once. Task ids
  /// and `GetResults` keep the request order.
  ///
  /// Tasks are deduplicated by `TaskFingerprint`: a task whose computation
  /// is cached is served instantly, and identical in-flight tasks run the
  /// kernel once (single-flight, see `Scheduler`). When an enqueue is
  /// refused the gateway rolls back: never-enqueued tasks move to
  /// `kFailed` with a stored error result (never stuck `kPending`), and a
  /// comparison with no enqueued task at all is erased.
  Result<std::string> SubmitQuerySet(const QuerySet& query_set);

  /// Current aggregate status of a comparison.
  Result<ComparisonStatus> GetStatus(const std::string& comparison_id) const {
    return status_.GetStatus(comparison_id);
  }

  /// Results of all *terminal* tasks so far, in task order. Tasks that
  /// failed carry their error status; pending/running tasks are skipped. A
  /// terminal task with no stored result (should not happen in normal
  /// operation) still yields an entry whose status names its state, so
  /// callers can always distinguish "no result yet" from "task failed".
  Result<std::vector<TaskResult>> GetResults(
      const std::string& comparison_id) const;

  /// Requests cancellation of all not-yet-started tasks of a comparison.
  Status Cancel(const std::string& comparison_id) {
    return status_.Cancel(comparison_id);
  }

  /// Blocks until the comparison is done. `timeout_seconds == 0` blocks
  /// indefinitely; positive values bound the wait (returns false on
  /// timeout); negative values are rejected as InvalidArgument.
  Result<bool> WaitForCompletion(const std::string& comparison_id,
                                 double timeout_seconds = 0.0) const {
    return status_.WaitUntilDone(comparison_id, timeout_seconds);
  }

  /// Stops the scheduler (drains in-flight work); idempotent.
  void Shutdown() { scheduler_.Shutdown(); }

  StatusService& status_service() { return status_; }
  size_t num_workers() const { return scheduler_.num_workers(); }
  const PlatformOptions& options() const { return options_; }

  /// The datastore's completed-result cache this gateway serves hits from.
  ResultCache& result_cache() { return datastore_->result_cache(); }

  /// The backing datastore — the network layer serves `UploadDataset` and
  /// monitoring stats through it on behalf of remote clients.
  Datastore* datastore() { return datastore_; }

  /// Registers a callback fired once per comparison, with its id, when its
  /// last task enters a terminal state — the push primitive behind the
  /// network layer's SUBSCRIBE frames and parked WAITs. Thin
  /// forwarder to the StatusService; see
  /// `StatusService::AddTerminalListener` for the restrictive locking
  /// contract (the callback may run under scheduler locks — it must only
  /// enqueue a notification, never call back into the gateway).
  uint64_t AddTerminalListener(StatusService::TerminalListener listener) {
    return status_.AddTerminalListener(std::move(listener));
  }

  /// Unregisters a terminal-state listener (see StatusService for the
  /// in-flight-invocation caveat).
  void RemoveTerminalListener(uint64_t token) {
    status_.RemoveTerminalListener(token);
  }

 private:
  const PlatformOptions options_;
  Datastore* datastore_;
  StatusService status_;
  Executor executor_;
  Scheduler scheduler_;
  AlgorithmRegistry* registry_;
};

}  // namespace cyclerank

#endif  // CYCLERANK_PLATFORM_GATEWAY_H_
