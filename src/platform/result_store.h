#ifndef CYCLERANK_PLATFORM_RESULT_STORE_H_
#define CYCLERANK_PLATFORM_RESULT_STORE_H_

#include <cstddef>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "platform/expiry_markers.h"
#include "platform/spill_tier.h"
#include "platform/task.h"

namespace cyclerank {

/// The task-results part of the Datastore decomposition: per-task
/// `TaskResult`s and log lines with FIFO retention and bounded expiry
/// markers, optionally backed by a disk `SpillTier`.
///
/// `max_retained` bounds the live results (0 = unlimited): past it the
/// oldest stored results are evicted FIFO, and looking one up reports
/// `kExpired` instead of `kNotFound`. Markers are themselves FIFO-bounded
/// by the same knob, so the store's footprint stays O(max_retained)
/// forever. Overwriting a result (a retry) keeps its retention slot;
/// re-storing an evicted id revives it.
///
/// **With a spill tier**, eviction *demotes* the victim to disk (the
/// serialization runs on the tier's flush thread), and `Get` reloads it
/// and re-admits it to memory, where it takes a fresh retention slot and
/// may demote the oldest in its place. Only when the tier prunes it (its
/// own byte budget) does the id expire for real, with a message that says
/// so.
///
/// Log lines are kept per task id and follow the result's *memory*
/// lifetime: eviction erases them, a retry overwrite keeps them, and a
/// reloaded result returns without its log trail. Lines may be appended
/// before the result is stored (a running task logs as it goes).
///
/// Thread-safe. One mutex orders every step of a result's lifecycle:
/// eviction, demotion and log erasure happen together, and `Get` holds it
/// across a reload, so a reader never falls between a result leaving
/// memory and reaching the tier.
class ResultStore {
 public:
  /// `spill` may be null (no disk tier) and must outlive the store.
  explicit ResultStore(size_t max_retained = 0, SpillTier* spill = nullptr)
      : max_retained_(max_retained), spill_(spill) {}

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// Stores `result` under its task id (overwrites on retry without
  /// refreshing the retention slot), evicting the oldest results past the
  /// retention bound.
  void Put(TaskResult result) CYR_EXCLUDES(mu_);

  /// The stored result, reloaded from the spill tier when it was demoted.
  /// `kExpired` when retention evicted it (and, with a spill tier, the
  /// tier pruned it), `kNotFound` when it was never stored (or its marker
  /// fell off).
  Result<TaskResult> Get(const std::string& task_id) CYR_EXCLUDES(mu_);

  /// True only for live (non-evicted) results.
  bool Has(const std::string& task_id) const CYR_EXCLUDES(mu_);

  /// Number of live stored results.
  size_t size() const CYR_EXCLUDES(mu_);

  /// Appends one log line for `task_id`.
  void AppendLog(const std::string& task_id, std::string line)
      CYR_EXCLUDES(mu_);

  /// All log lines of `task_id`, oldest first (empty if none).
  std::vector<std::string> GetLog(const std::string& task_id) const
      CYR_EXCLUDES(mu_);

 private:
  /// Inserts or overwrites `result`, then evicts past the retention bound.
  void PutLocked(TaskResult result) CYR_REQUIRES(mu_);

  /// Evicts the oldest results past the retention bound — demoting them
  /// to the spill tier when one is attached — and erases their logs.
  void EnforceRetentionLocked() CYR_REQUIRES(mu_);

  const size_t max_retained_;  // 0 = unlimited
  SpillTier* const spill_;     // not owned, may be null
  /// Nests outside the spill tier's locks (eviction demotes and `Get`
  /// reloads under it).
  mutable Mutex mu_{lock_rank::kResultStoreMu, "ResultStore::mu_"};
  std::map<std::string, TaskResult> results_ CYR_GUARDED_BY(mu_);
  /// Insertion order of results_.
  std::deque<std::string> retention_fifo_ CYR_GUARDED_BY(mu_);
  ExpiryMarkers evicted_ CYR_GUARDED_BY(mu_);  ///< ids answered with kExpired
  std::map<std::string, std::vector<std::string>> logs_ CYR_GUARDED_BY(mu_);
};

}  // namespace cyclerank

#endif  // CYCLERANK_PLATFORM_RESULT_STORE_H_
