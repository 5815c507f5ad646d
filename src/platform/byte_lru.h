#ifndef CYCLERANK_PLATFORM_BYTE_LRU_H_
#define CYCLERANK_PLATFORM_BYTE_LRU_H_

#include <cstddef>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace cyclerank {

/// The byte-budgeted-LRU core that `GraphStore`, `ResultCache`, and the
/// disk `SpillTier` all need: one recency list, one key index, and byte
/// accounting, kept consistent behind a small primitive API.
///
/// Deliberately policy-free — the owning store decides what a duplicate
/// key means (`GraphStore` rejects, `ResultCache` overwrites), when to
/// stop evicting (`GraphStore` never evicts its newest entry, the cache
/// evicts to empty), and what eviction *does* (drop, demote to disk). The
/// core only guarantees the three structures never drift apart. A
/// `max_bytes` of 0 means unbounded (`OverBudget()` is then always false).
///
/// Not thread-safe: each owning store guards its instance with its own
/// mutex, exactly as the hand-rolled versions did — the owner declares
/// its `ByteBudgetedLru` field `CYR_GUARDED_BY` that mutex, so Clang's
/// thread-safety analysis proves every access happens under it.
template <typename Value>
class ByteBudgetedLru {
 public:
  struct Entry {
    std::string key;
    Value value;
    size_t bytes = 0;
  };

  explicit ByteBudgetedLru(size_t max_bytes = 0) : max_bytes_(max_bytes) {}

  ByteBudgetedLru(const ByteBudgetedLru&) = delete;
  ByteBudgetedLru& operator=(const ByteBudgetedLru&) = delete;

  bool Contains(const std::string& key) const {
    return index_.count(key) != 0;
  }

  /// The value of `key` without touching recency (metadata peeks), or
  /// nullptr when absent.
  const Value* Find(const std::string& key) const {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->value;
  }

  /// The value of `key`, bumped to most-recently-used; nullptr when absent.
  Value* Touch(const std::string& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->value;
  }

  /// Inserts `key` as the most-recently-used entry. The key must not be
  /// present (duplicate policy is the caller's; use `Erase` first to
  /// overwrite).
  void Insert(const std::string& key, Value value, size_t bytes) {
    lru_.push_front(Entry{key, std::move(value), bytes});
    index_[key] = lru_.begin();
    bytes_ += bytes;
  }

  /// Removes and returns `key`'s entry; nullopt when absent.
  std::optional<Entry> Erase(const std::string& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    Entry entry = std::move(*it->second);
    bytes_ -= entry.bytes;
    lru_.erase(it->second);
    index_.erase(it);
    return entry;
  }

  /// Removes and returns the least-recently-used entry; nullopt when empty.
  std::optional<Entry> PopLeastRecent() {
    if (lru_.empty()) return std::nullopt;
    Entry entry = std::move(lru_.back());
    bytes_ -= entry.bytes;
    index_.erase(entry.key);
    lru_.pop_back();
    return entry;
  }

  /// Removes every entry whose key starts with `prefix`; returns them.
  std::vector<Entry> ErasePrefix(const std::string& prefix) {
    std::vector<Entry> erased;
    // index_ is ordered, so the matching keys form one contiguous range.
    for (auto it = index_.lower_bound(prefix);
         it != index_.end() &&
         it->first.compare(0, prefix.size(), prefix) == 0;
         it = index_.erase(it)) {
      bytes_ -= it->second->bytes;
      erased.push_back(std::move(*it->second));
      lru_.erase(it->second);
    }
    return erased;
  }

  /// All keys, sorted ascending.
  std::vector<std::string> Keys() const {
    std::vector<std::string> out;
    out.reserve(index_.size());
    for (const auto& [key, entry] : index_) out.push_back(key);
    return out;
  }

  /// True while the accounted bytes exceed a non-zero budget.
  bool OverBudget() const { return max_bytes_ != 0 && bytes_ > max_bytes_; }

  size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }
  size_t bytes() const { return bytes_; }
  size_t max_bytes() const { return max_bytes_; }

 private:
  const size_t max_bytes_;  // 0 = unbounded
  std::list<Entry> lru_;    ///< front = most recently used
  std::map<std::string, typename std::list<Entry>::iterator> index_;
  size_t bytes_ = 0;
};

}  // namespace cyclerank

#endif  // CYCLERANK_PLATFORM_BYTE_LRU_H_
