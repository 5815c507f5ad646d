#include "platform/result_store.h"

#include <utility>

#include "common/logging.h"
#include "common/mutex.h"
#include "platform/result_io.h"

namespace cyclerank {

void ResultStore::Put(TaskResult result) {
  MutexLock lock(mu_);
  PutLocked(std::move(result));
}

void ResultStore::PutLocked(TaskResult result) {
  std::string id = result.task_id;
  const bool inserted =
      results_.insert_or_assign(id, std::move(result)).second;
  // Unlimited mode keeps no retention bookkeeping at all — the FIFO would
  // otherwise grow one id per stored result forever.
  if (max_retained_ == 0) return;
  if (!inserted) return;  // retry overwrite: slot (and logs) unchanged
  // A re-stored result revives an evicted id.
  evicted_.Revive(id);
  retention_fifo_.push_back(std::move(id));
  EnforceRetentionLocked();
}

void ResultStore::EnforceRetentionLocked() {
  while (results_.size() > max_retained_) {
    const std::string oldest = std::move(retention_fifo_.front());
    retention_fifo_.pop_front();
    auto node = results_.extract(oldest);
    logs_.erase(oldest);
    evicted_.Mark(oldest);
    if (spill_ == nullptr || node.empty()) continue;
    // Deferred payload: the serialization happens on the tier's flush
    // thread, so retention eviction does not pay for it under mu_.
    const Status spilled =
        spill_->Put(oldest, MakeResultSpillPayload(std::move(node.mapped())));
    if (!spilled.ok()) {
      CYCLERANK_LOG(kWarning)
          << "result store: could not spill evicted result '" << oldest
          << "': " << spilled.ToString() << "; dropping it instead";
    }
  }
  // The eviction-marker set is FIFO-bounded too (by the same knob), so the
  // store's footprint stays O(max_retained) forever.
  evicted_.Bound(max_retained_);
}

Result<TaskResult> ResultStore::Get(const std::string& task_id) {
  MutexLock lock(mu_);
  auto it = results_.find(task_id);
  if (it != results_.end()) return it->second;
  if (spill_ != nullptr) {
    // Retention evicted the result from memory — or even its marker — but
    // the disk tier may still hold it.
    Result<SpillTier::Loaded> loaded = spill_->Get(task_id);
    if (loaded.ok()) {
      Result<TaskResult> decoded = DeserializeTaskResult(loaded->payload);
      if (decoded.ok()) {
        // Re-admit to memory (a revived result occupies a fresh retention
        // slot; the oldest may be demoted in its place). The logs were
        // dropped at the original eviction and stay dropped.
        PutLocked(*decoded);
        return decoded;
      }
      CYCLERANK_LOG(kWarning) << "result store: dropping undecodable spill "
                              << "of result '" << task_id
                              << "': " << decoded.status().ToString();
      spill_->Erase(task_id);
    }
  }
  if (!evicted_.Contains(task_id)) {
    return Status::NotFound("no result for task '" + task_id + "'");
  }
  if (spill_ != nullptr && spill_->WasPruned(task_id)) {
    return Status::Expired(
        "result for task '" + task_id +
        "' was evicted by the retention policy, spilled to disk, and then "
        "pruned by the result spill budget (" +
        std::to_string(spill_->max_bytes()) +
        " bytes); it must be recomputed");
  }
  return Status::Expired("result for task '" + task_id +
                         "' was evicted by the retention policy (bound " +
                         std::to_string(max_retained_) + ")");
}

bool ResultStore::Has(const std::string& task_id) const {
  MutexLock lock(mu_);
  return results_.count(task_id) != 0;
}

size_t ResultStore::size() const {
  MutexLock lock(mu_);
  return results_.size();
}

void ResultStore::AppendLog(const std::string& task_id, std::string line) {
  MutexLock lock(mu_);
  logs_[task_id].push_back(std::move(line));
}

std::vector<std::string> ResultStore::GetLog(const std::string& task_id) const {
  MutexLock lock(mu_);
  auto it = logs_.find(task_id);
  if (it == logs_.end()) return {};
  return it->second;
}

}  // namespace cyclerank
