#ifndef CYCLERANK_PLATFORM_SCHEDULER_H_
#define CYCLERANK_PLATFORM_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "platform/executor.h"
#include "platform/platform_options.h"
#include "platform/task.h"

namespace cyclerank {

/// The Scheduler of Fig. 1: "when the Scheduler receives the task, it
/// fetches the dataset and invokes an Executor node; the computation …
/// is off-loaded to the worker nodes."
///
/// Tasks are dispatched FIFO across submissions, and within one query set
/// in the gateway's longest-estimated-first order, with at most
/// `num_workers` running concurrently. That knob is the one behind
/// "computational nodes … can be scaled up or down depending on the
/// system's workload" (§III); the F1 bench sweeps it. Execution happens on the process-wide compute pool
/// (`GlobalComputePool`), the same substrate the ranking kernels use for
/// their own `ParallelFor` fan-out. Sharing one pool keeps the number of
/// runnable threads bounded by the hardware even when query-level and
/// kernel-level parallelism are both active (kernels fall back to
/// caller-runs when the pool is busy, so nesting cannot deadlock).
///
/// On top of dispatch the scheduler deduplicates identical work. Tasks
/// enqueued with the same non-empty `coalesce_key` (a `TaskFingerprint`)
/// are single-flighted: the first becomes the *leader* and actually runs;
/// later ones become *followers* that never dispatch — the leader's outcome
/// is fanned out to them on completion (each keeps its own task id, result
/// record, and status lifecycle). Successful outcomes also enter the
/// `ResultCache`, and an enqueue whose key is already cached is served
/// synchronously with zero kernel work.
///
/// **Overload control** (PR 8). Two admission knobs defend latency when
/// demand outruns the workers:
///
///   - `PlatformOptions::admission_queue_limit` bounds the not-yet-running
///     backlog: an enqueue that would queue past the bound is rejected
///     synchronously with `kUnavailable` — the caller learns *now* that
///     the system is overloaded, instead of parking work in an unbounded
///     queue. Cache hits and single-flight followers are exempt (they
///     occupy no worker).
///   - a *deadline*: the task parameter `deadline_ms=` (or, absent that,
///     `PlatformOptions::default_deadline_ms`) gives each task a relative
///     deadline, fixed to an absolute steady-clock instant at enqueue. A
///     task whose deadline passes while it waits — in the queue or
///     coalesced behind a leader — fast-fails `kDeadlineExceeded` without
///     touching a kernel, so a backlogged system sheds exactly the work
///     whose answer nobody is still waiting for. Deadlines are
///     execution-only (excluded from fingerprints): they decide *whether*
///     the kernel runs, never what it computes, and a deadline-exceeded
///     leader promotes its first follower rather than dragging it down.
class Scheduler {
 public:
  /// `options.num_workers` caps concurrently running tasks (0 = one per
  /// hardware thread). `pool` defaults to the process-wide compute pool;
  /// tests may inject their own. The pool is borrowed and is never shut
  /// down by the scheduler. Cached results are read from (and written, by
  /// the executor, to) the executor's datastore-owned `ResultCache`.
  Scheduler(Executor* executor, const PlatformOptions& options,
            ThreadPool* pool = nullptr);
  ~Scheduler() { Shutdown(); }

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueues a task for execution. `cancelled` (optional) is sampled by
  /// the executor before the computation starts; the shared_ptr keeps the
  /// flag alive for the task's lifetime. Fails when the scheduler is shut
  /// down.
  ///
  /// A non-empty `coalesce_key` asserts that every task carrying this key
  /// describes the same deterministic computation; the scheduler is then
  /// free to serve the task from the result cache or coalesce it with an
  /// in-flight leader (see class comment). A cancelled leader does not drag
  /// its followers down: the first follower is promoted to a fresh leader
  /// under its own cancellation flag.
  ///
  /// Overload control (see class comment): a malformed `deadline_ms=`
  /// parameter is rejected with `kInvalidArgument`; an enqueue that would
  /// grow the waiting queue past `admission_queue_limit` answers
  /// `kUnavailable` without tracking the task.
  Status Enqueue(const std::string& task_id, TaskSpec spec,
                 std::shared_ptr<std::atomic<bool>> cancelled = nullptr,
                 std::string coalesce_key = {}) CYR_EXCLUDES(mu_);

  /// Blocks until all tasks enqueued so far have finished.
  void Drain() CYR_EXCLUDES(mu_);

  /// Stops accepting work and waits for in-flight tasks (idempotent).
  void Shutdown() CYR_EXCLUDES(mu_);

  size_t num_workers() const { return num_workers_; }

  /// Number of tasks accepted but not yet dispatched to the pool.
  size_t QueueDepth() const CYR_EXCLUDES(mu_);

 private:
  /// Absolute per-task deadline; nullopt = none.
  using Deadline = std::optional<std::chrono::steady_clock::time_point>;

  struct Pending {
    std::string task_id;
    TaskSpec spec;
    std::shared_ptr<std::atomic<bool>> cancelled;
    std::string key;  ///< coalesce key; empty = no dedup
    Deadline deadline;
  };

  /// A coalesced task waiting for its leader's outcome.
  struct Follower {
    std::string task_id;
    TaskSpec spec;
    std::shared_ptr<std::atomic<bool>> cancelled;
    Deadline deadline;
  };

  /// Single-flight bookkeeping for one key with work queued or running.
  struct Inflight {
    std::string leader_id;
    std::vector<Follower> followers;
  };

  /// Dispatches waiting tasks while concurrency allows; requires `mu_`.
  void DispatchLocked() CYR_REQUIRES(mu_);

  /// Delivers the leader's outcome to coalesced followers — except those
  /// whose own requester cancelled meanwhile, which get a cancelled
  /// outcome of their own. Must be called without `mu_` held (delivery
  /// writes results through the datastore) except on the degenerate
  /// pool-refused shutdown path.
  void DeliverFollowers(const std::vector<Follower>& fan_out,
                        const TaskResult& outcome,
                        const std::string& leader_id);

  /// Finishes single-flight bookkeeping for a completed leader; requires
  /// `mu_` (the executor already published successful outcomes to the
  /// cache). Followers to deliver are moved into `fan_out` — the caller
  /// delivers, usually outside the lock, and is responsible for a
  /// DispatchLocked pass afterwards. A cancelled leader with followers
  /// promotes the first follower to a fresh leader instead — cancellation
  /// belongs to the requester, not the computation — unless the scheduler
  /// is shutting down.
  void CompleteKeyLocked(const std::string& key, const std::string& task_id,
                         const TaskResult& outcome,
                         std::vector<Follower>* fan_out) CYR_REQUIRES(mu_);

  /// True when `deadline` exists and has passed.
  static bool Expired(const Deadline& deadline) {
    return deadline.has_value() &&
           std::chrono::steady_clock::now() > *deadline;
  }

  Executor* executor_;
  ThreadPool* pool_;  // borrowed; shared with kernel-level ParallelFor
  const size_t num_workers_;
  const size_t admission_queue_limit_;  ///< 0 = unbounded backlog
  const uint64_t default_deadline_ms_;  ///< 0 = no implicit deadline

  /// Outermost of the execution-side locks: DispatchLocked reaches the
  /// result cache, the datastore, and (on the pool-refused shutdown path)
  /// the whole executor stack while holding it.
  mutable Mutex mu_{lock_rank::kSchedulerMu, "Scheduler::mu_"};
  CondVar idle_;
  std::deque<Pending> waiting_ CYR_GUARDED_BY(mu_);
  /// Keyed single-flight entries.
  std::map<std::string, Inflight> inflight_ CYR_GUARDED_BY(mu_);
  size_t in_flight_ CYR_GUARDED_BY(mu_) = 0;
  bool shutdown_ CYR_GUARDED_BY(mu_) = false;
};

}  // namespace cyclerank

#endif  // CYCLERANK_PLATFORM_SCHEDULER_H_
