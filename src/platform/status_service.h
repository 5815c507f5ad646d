#ifndef CYCLERANK_PLATFORM_STATUS_SERVICE_H_
#define CYCLERANK_PLATFORM_STATUS_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/uuid.h"
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

/// The Status component of Fig. 1: "while the computation is running, the
/// Status component polls the Executor node to monitor its progress".
///
/// Holds one record per comparison: its tasks' states by position,
/// terminal/completed/failed/cancelled counters kept at each transition,
/// the `TaskSpec`s, and the shared cancel flag. Executors push their task
/// transitions here and clients poll (or block on) the record. A task id
/// is `"<comparison-id>/<index>"`; this class alone formats and parses it.
/// Thread-safe.
class StatusService {
 public:
  /// `uuid_seed` seeds the comparison-id generator (0 draws from
  /// `std::random_device`; any other value gives a fixed sequence).
  explicit StatusService(uint64_t uuid_seed = 0) : uuid_(uuid_seed) {}
  StatusService(const StatusService&) = delete;
  StatusService& operator=(const StatusService&) = delete;

  /// What `Track` hands the dispatcher.
  struct Tracked {
    std::string comparison_id;
    std::vector<std::string> task_ids;  ///< in request order
    std::shared_ptr<std::atomic<bool>> cancelled;
  };

  /// Mints a comparison id and records one `kPending` task per spec, in
  /// one step. Fails only if the minted id is already tracked.
  Result<Tracked> Track(std::vector<TaskSpec> specs) CYR_EXCLUDES(mu_);

  /// Drops a comparison's record (a submission rolled back with nothing
  /// enqueued); its id answers NotFound afterwards.
  void Erase(const std::string& comparison_id) CYR_EXCLUDES(mu_);

  /// Records a state transition. Transitions out of a terminal state are
  /// rejected (FailedPrecondition) — a cancelled task cannot complete.
  Status SetState(const std::string& task_id, TaskState state)
      CYR_EXCLUDES(mu_);

  /// Current state of `task_id`.
  Result<TaskState> GetState(const std::string& task_id) const
      CYR_EXCLUDES(mu_);

  /// A snapshot of the comparison's record. `specs`, when given, receives
  /// the tasks' specs in task order.
  Result<ComparisonStatus> GetStatus(const std::string& comparison_id,
                                     std::vector<TaskSpec>* specs = nullptr)
      const CYR_EXCLUDES(mu_);

  /// Raises the comparison's cancel flag; tasks not yet started skip.
  Status Cancel(const std::string& comparison_id) CYR_EXCLUDES(mu_);

  /// Blocks until every task of the comparison is terminal.
  /// `timeout_seconds == 0` blocks indefinitely; a positive value bounds
  /// the wait and the call returns false on timeout. Negative timeouts are
  /// rejected as InvalidArgument, so a caller's sign bug fails fast
  /// instead of hanging.
  Result<bool> WaitUntilDone(const std::string& comparison_id,
                             double timeout_seconds = 0.0) const
      CYR_EXCLUDES(mu_);

  /// Number of tracked comparisons.
  size_t size() const CYR_EXCLUDES(mu_);

  /// Callback fired once per comparison, with its id, when its last task
  /// turns terminal (the push counterpart of `WaitUntilDone`). Invoked
  /// after the record is updated and `mu_` released, on whichever thread
  /// drove that last transition.
  ///
  /// Locking contract (restrictive by design): the executing thread may
  /// already hold locks up to `kSchedulerMu` — on the pool-refused
  /// shutdown path the scheduler runs the executor, and thus this
  /// callback, under its own mutex. A listener must therefore never
  /// block and never acquire a *ranked* lock; the sanctioned shape is
  /// "append to an unranked mailbox, poke a wakeup fd, return"
  /// (see `net::NetServer`). Calling back into the gateway or this
  /// service from a listener deadlocks or aborts the rank checker.
  using TerminalListener =
      std::function<void(const std::string& comparison_id)>;

  /// Registers `listener`; returns a token for `RemoveTerminalListener`.
  uint64_t AddTerminalListener(TerminalListener listener) CYR_EXCLUDES(mu_);

  /// Unregisters a listener. An invocation already in flight on another
  /// thread may still complete after this returns — listeners that
  /// capture shared state must keep it alive independently (e.g. via
  /// `shared_ptr`) rather than rely on removal as a barrier.
  void RemoveTerminalListener(uint64_t token) CYR_EXCLUDES(mu_);

 private:
  struct Record {
    std::vector<TaskState> states;  ///< by task position
    std::vector<TaskSpec> specs;    ///< parallel to states
    size_t terminal = 0;
    size_t completed = 0;
    size_t failed = 0;
    size_t cancelled = 0;
    std::shared_ptr<std::atomic<bool>> cancel;

    bool done() const { return terminal == states.size(); }
  };

  mutable Mutex mu_{lock_rank::kStatusServiceMu, "StatusService::mu_"};
  mutable CondVar finished_;
  UuidGenerator uuid_ CYR_GUARDED_BY(mu_);
  std::map<std::string, Record, std::less<>> records_ CYR_GUARDED_BY(mu_);
  std::map<uint64_t, TerminalListener> listeners_ CYR_GUARDED_BY(mu_);
  uint64_t next_listener_token_ CYR_GUARDED_BY(mu_) = 1;
};

}  // namespace cyclerank

#endif  // CYCLERANK_PLATFORM_STATUS_SERVICE_H_
