#include "platform/result_cache.h"

#include <utility>

#include "common/mutex.h"

namespace cyclerank {

std::optional<TaskResult> ResultCache::Get(const std::string& key) {
  MutexLock lock(mu_);
  TaskResult* result = lru_.Touch(key);
  if (result == nullptr) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return *result;
}

void ResultCache::Put(const std::string& key, TaskResult result) {
  const size_t bytes = EstimateBytes(key, result);
  MutexLock lock(mu_);
  if (bytes > max_bytes_) {
    ++stats_.rejected;
    return;
  }
  lru_.Erase(key);  // overwrite-on-duplicate policy
  lru_.Insert(key, std::move(result), bytes);
  ++stats_.insertions;
  while (lru_.OverBudget() && lru_.PopLeastRecent().has_value()) {
    ++stats_.evictions;
  }
}

size_t ResultCache::ErasePrefix(const std::string& prefix) {
  MutexLock lock(mu_);
  const size_t erased = lru_.ErasePrefix(prefix).size();
  stats_.invalidations += erased;
  return erased;
}

ResultCacheStats ResultCache::stats() const {
  MutexLock lock(mu_);
  ResultCacheStats snapshot = stats_;
  snapshot.entries = lru_.size();
  snapshot.bytes = lru_.bytes();
  return snapshot;
}

size_t ResultCache::EstimateBytes(const std::string& key,
                                  const TaskResult& result) {
  // Fixed overhead: the LRU node, the index map node, and the string /
  // vector headers the payload sizes below do not include.
  constexpr size_t kOverhead = sizeof(ByteBudgetedLru<TaskResult>::Entry) + 128;
  return kOverhead + key.size() + result.task_id.size() +
         result.spec.dataset.size() + result.spec.algorithm.size() +
         result.spec.params.ToString().size() +
         result.status.message().size() +
         result.ranking.size() * sizeof(ScoredNode);
}

}  // namespace cyclerank
