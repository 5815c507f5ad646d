#ifndef CYCLERANK_PLATFORM_GATEWAY_H_
#define CYCLERANK_PLATFORM_GATEWAY_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/uuid.h"
#include "platform/datastore.h"
#include "platform/platform_options.h"
#include "platform/registry.h"
#include "platform/scheduler.h"
#include "platform/status_service.h"
#include "platform/task.h"

namespace cyclerank {

/// Aggregate progress of a submitted query set.
struct ComparisonStatus {
  std::string comparison_id;
  std::vector<std::string> task_ids;  ///< "<comparison-id>/<index>"
  std::vector<TaskState> states;      ///< parallel to task_ids
  size_t completed = 0;
  size_t failed = 0;
  size_t cancelled = 0;
  bool done = false;  ///< all tasks terminal
};

/// The API gateway of Fig. 1: "the entry point for all incoming requests
/// from the Web UI", routing them to the computational nodes and serving
/// results back.
///
/// A submitted `QuerySet` becomes a *comparison* identified by a UUIDv4
/// permalink (as in Fig. 2's "Comparison id:"); each query becomes a task
/// `<comparison-id>/<index>`. Submission is asynchronous: poll
/// `GetStatus`, block with `WaitForCompletion`, then join the per-task
/// outcomes with `GetResults`.
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
  /// kernel once (single-flight, see `Scheduler`). On a mid-submission
  /// failure the gateway rolls back: tracked-but-never-enqueued tasks move
  /// to `kFailed` with a stored error result (never stuck `kPending`), and
  /// a comparison with no enqueued task at all is erased.
  Result<std::string> SubmitQuerySet(const QuerySet& query_set)
      CYR_EXCLUDES(mu_);

  /// Current aggregate status of a comparison.
  Result<ComparisonStatus> GetStatus(const std::string& comparison_id) const
      CYR_EXCLUDES(mu_);

  /// Results of all *terminal* tasks so far, in task order. Tasks that
  /// failed carry their error status; pending/running tasks are skipped. A
  /// terminal task with no stored result (should not happen in normal
  /// operation) still yields an entry whose status names its state, so
  /// callers can always distinguish "no result yet" from "task failed".
  Result<std::vector<TaskResult>> GetResults(
      const std::string& comparison_id) const CYR_EXCLUDES(mu_);

  /// Requests cancellation of all not-yet-started tasks of a comparison.
  Status Cancel(const std::string& comparison_id) CYR_EXCLUDES(mu_);

  /// Blocks until the comparison is done. `timeout_seconds == 0` blocks
  /// indefinitely; positive values bound the wait (returns false on
  /// timeout); negative values are rejected as InvalidArgument.
  Result<bool> WaitForCompletion(const std::string& comparison_id,
                                 double timeout_seconds = 0.0) const
      CYR_EXCLUDES(mu_);

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

  /// Registers a callback fired whenever any task tracked by this gateway
  /// enters a terminal state — the push primitive behind the network
  /// layer's SUBSCRIBE frames and event-driven WaitForCompletion. Thin
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
  struct Comparison {
    std::vector<std::string> task_ids;
    std::vector<TaskSpec> specs;  ///< parallel to task_ids
    std::shared_ptr<std::atomic<bool>> cancelled;
  };

  const PlatformOptions options_;
  Datastore* datastore_;
  StatusService status_;
  Executor executor_;
  Scheduler scheduler_;

  /// Outermost lock of the whole platform: submission holds it only for
  /// id generation and comparison-map writes, never across enqueue or
  /// delivery — but the rank is ordered before every other lock anyway.
  mutable Mutex mu_{lock_rank::kGatewayMu, "ApiGateway::mu_"};
  UuidGenerator uuid_ CYR_GUARDED_BY(mu_);
  std::map<std::string, Comparison> comparisons_ CYR_GUARDED_BY(mu_);
  AlgorithmRegistry* registry_;
};

}  // namespace cyclerank

#endif  // CYCLERANK_PLATFORM_GATEWAY_H_
