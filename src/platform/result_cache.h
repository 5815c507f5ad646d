#ifndef CYCLERANK_PLATFORM_RESULT_CACHE_H_
#define CYCLERANK_PLATFORM_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "platform/byte_lru.h"
#include "platform/task.h"

namespace cyclerank {

/// Effectiveness counters of a `ResultCache`; snapshot via `stats()`.
struct ResultCacheStats {
  uint64_t hits = 0;        ///< `Get` calls that returned a result
  uint64_t misses = 0;      ///< `Get` calls that returned nothing
  uint64_t insertions = 0;  ///< entries stored (including overwrites)
  uint64_t evictions = 0;   ///< entries dropped to respect the byte budget
  uint64_t rejected = 0;    ///< entries larger than the entire budget
  uint64_t invalidations = 0;  ///< entries dropped by `ErasePrefix`
  size_t entries = 0;       ///< current entry count
  size_t bytes = 0;         ///< current estimated footprint
};

/// Byte-budgeted LRU cache of completed `TaskResult`s, keyed by
/// `TaskFingerprint` (platform/params.h).
///
/// This is the "repeated heavy-traffic queries stop re-running kernels"
/// layer: every kernel is deterministic and bit-identical at any thread
/// count, so a fingerprint hit can be served verbatim — the cached ranking
/// IS the ranking a fresh run would produce. Only successful results belong
/// here; failures are cheap to re-derive and may be transient.
///
/// Memory only: an evicted entry is destroyed, not demoted to disk. Every
/// cached ranking is also stored under its task id in the `ResultStore`
/// (whose retention spills to disk), and a miss re-runs a deterministic
/// kernel bit-identically, so a disk copy here would only duplicate bytes.
/// `ErasePrefix` drops a dataset's entries when its name is re-bound.
///
/// The footprint of an entry is estimated with `EstimateBytes` (dominated by
/// the ranking payload). Inserting past the budget evicts least-recently-used
/// entries; an entry that alone exceeds the budget is rejected outright. A
/// budget of 0 disables storage entirely (every `Get` misses).
///
/// Thread-safe. `Get` returns a copy so entries can be evicted while callers
/// still hold results.
class ResultCache {
 public:
  static constexpr size_t kDefaultMaxBytes = 64u << 20;  // 64 MiB

  explicit ResultCache(size_t max_bytes = kDefaultMaxBytes)
      : max_bytes_(max_bytes), lru_(max_bytes) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached result for `key` (bumped to most-recently-used), or
  /// nullopt on a miss.
  std::optional<TaskResult> Get(const std::string& key) CYR_EXCLUDES(mu_);

  /// Stores `result` under `key`, overwriting any previous entry and
  /// evicting LRU entries until the budget holds.
  void Put(const std::string& key, TaskResult result) CYR_EXCLUDES(mu_);

  /// Drops every entry whose key starts with `prefix`; returns how many.
  /// Used to invalidate a dataset's cached results when its name is
  /// re-bound to new content (`DatasetFingerprintPrefix`).
  size_t ErasePrefix(const std::string& prefix) CYR_EXCLUDES(mu_);

  ResultCacheStats stats() const CYR_EXCLUDES(mu_);
  size_t max_bytes() const { return max_bytes_; }

  /// Estimated heap footprint of caching `result` under `key` — the string
  /// payloads plus the ranking entries plus fixed bookkeeping overhead.
  static size_t EstimateBytes(const std::string& key, const TaskResult& result);

 private:
  const size_t max_bytes_;
  /// Nests inside the scheduler's mutex; calls nothing that locks.
  mutable Mutex mu_{lock_rank::kResultCacheMu, "ResultCache::mu_"};
  /// List + index + byte accounting.
  ByteBudgetedLru<TaskResult> lru_ CYR_GUARDED_BY(mu_);
  /// Counters only; entries/bytes snapshot from lru_.
  ResultCacheStats stats_ CYR_GUARDED_BY(mu_);
};

}  // namespace cyclerank

#endif  // CYCLERANK_PLATFORM_RESULT_CACHE_H_
