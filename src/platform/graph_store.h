#ifndef CYCLERANK_PLATFORM_GRAPH_STORE_H_
#define CYCLERANK_PLATFORM_GRAPH_STORE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "graph/graph.h"
#include "platform/byte_lru.h"
#include "platform/expiry_markers.h"
#include "platform/spill_tier.h"

namespace cyclerank {

/// Occupancy and effectiveness counters of a `GraphStore`.
struct GraphStoreStats {
  uint64_t uploads = 0;     ///< datasets accepted by `Put`
  uint64_t evictions = 0;   ///< datasets dropped from memory to respect the
                            ///< byte budget (spilled ones count too)
  uint64_t rejections = 0;  ///< uploads larger than the entire budget
  uint64_t spills = 0;      ///< evictions demoted to the disk tier
  uint64_t reloads = 0;     ///< `Get` calls served by reloading from disk
  uint64_t hits = 0;  ///< `Get` calls that returned a graph
  /// `Get` calls answered NotFound or Expired. In a catalog-backed
  /// `Datastore` this includes lookups that resolve in the catalog
  /// instead, so size budgets by hits/evictions/bytes, not raw misses.
  uint64_t misses = 0;
  size_t entries = 0;       ///< live uploaded datasets (in memory)
  size_t bytes = 0;  ///< sum of `Graph::MemoryBytes()` of live datasets
};

/// The uploaded-datasets third of the Datastore decomposition: a
/// byte-budgeted store of immutable graph snapshots with
/// least-recently-queried eviction, optionally backed by a disk
/// `SpillTier`.
///
/// `max_bytes` bounds the sum of `Graph::MemoryBytes()` over live entries
/// (0 = unbounded). Uploading past the budget evicts the
/// least-recently-queried datasets; a single graph larger than the whole
/// budget is rejected up front with a byte-stating `kInvalidArgument`.
///
/// **Without a spill tier** (the historical behavior) evicted names answer
/// `kExpired` — distinguishable from never-uploaded (`kNotFound`) — until
/// the FIFO-bounded marker set forgets them; re-uploading an evicted name
/// revives it.
///
/// **With a spill tier**, eviction *demotes* instead of destroying: the
/// victim is serialized (`Graph::Serialize`) to the tier together with its
/// binding generation, and a later `Get` transparently reloads it into the
/// memory tier as most-recently-queried — same bytes, same generation, so
/// results cached against the binding stay servable and never cross-serve
/// a different binding. The disk copy is kept on reload (the entry is
/// *promoted*, not moved), so a process restart recovers every spilled
/// dataset; the generation counter restarts past the largest recovered
/// generation. Only when the disk tier prunes the entry (its own byte
/// budget) does the name expire for real — with an error message that says
/// so. A name resident on disk counts as uploaded: re-`Put` answers
/// `kAlreadyExists`, exactly like a memory-resident name.
///
/// Eviction only drops the store's reference. Graphs are immutable and
/// handed out as `shared_ptr` snapshots, so an executor that fetched a
/// `GraphPtr` *pins* that snapshot: a concurrent eviction can never free a
/// graph out from under an in-flight kernel — the memory is reclaimed when
/// the last pin drops.
///
/// Thread-safe; `Get` bumps recency under the same lock as the lookup, so
/// LRU order is race-free.
class GraphStore {
 public:
  /// Bound on remembered evicted names: past it the oldest markers are
  /// forgotten FIFO (they then answer `kNotFound` again), keeping the
  /// marker set O(1) in the upload churn.
  static constexpr size_t kMaxEvictionMarkers = 4096;

  /// `spill` may be null (no disk tier) and must outlive the store. With a
  /// spill tier, construction resumes the generation counter past every
  /// recovered binding, so post-restart uploads can never collide with a
  /// recovered dataset's fingerprint.
  explicit GraphStore(size_t max_bytes = 0, SpillTier* spill = nullptr);

  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  /// Stores `graph` under `name`. Rejects empty names, null graphs,
  /// duplicate live names (`kAlreadyExists` — disk-resident names count as
  /// live), and graphs whose `MemoryBytes()` alone exceeds the budget
  /// (`kInvalidArgument`, stating both byte figures). May evict
  /// least-recently-queried datasets to make room (demoting them to the
  /// spill tier when one is attached); the new dataset is most-recent and
  /// never evicted by its own insertion.
  Status Put(const std::string& name, GraphPtr graph) CYR_EXCLUDES(mu_);

  /// Fetches `name`, bumping it to most-recently-queried under the lookup
  /// lock; a spilled dataset is transparently reloaded from disk first.
  /// `kExpired` for names evicted (and, with a spill tier, pruned from
  /// disk — the message distinguishes the two), `kNotFound` otherwise.
  Result<GraphPtr> Get(const std::string& name) CYR_EXCLUDES(mu_);

  /// Generation of `name`'s current binding: a process-unique counter
  /// assigned at every successful `Put`, 0 when the name is not live. A
  /// dataset demoted to the spill tier keeps its generation (it is the
  /// same binding, merely colder), so cached results survive the demotion.
  /// Because eviction + re-upload can bind one *name* to different
  /// content, result-cache and single-flight keys qualify the dataset name
  /// with this generation — two bindings can never share a key.
  uint64_t Generation(const std::string& name) const CYR_EXCLUDES(mu_);

  /// Names of live datasets (memory- or disk-resident), sorted.
  std::vector<std::string> Names() const CYR_EXCLUDES(mu_);

  GraphStoreStats stats() const CYR_EXCLUDES(mu_);
  size_t max_bytes() const { return max_bytes_; }

 private:
  /// What the store keeps per memory-resident dataset.
  struct Slot {
    GraphPtr graph;
    uint64_t generation = 0;
  };

  /// Evicts least-recently-queried entries until the budget holds —
  /// demoting them to the spill tier when one is attached — then bounds
  /// the marker set; requires `mu_`.
  void EvictLocked() CYR_REQUIRES(mu_);

  /// Reloads `name` from the spill tier into the memory tier (most-recent,
  /// original generation); requires `mu_`. Returns null on a spill miss or
  /// a corrupt/undecodable spill file (which is dropped with a warning).
  GraphPtr ReloadLocked(const std::string& name) CYR_REQUIRES(mu_);

  const size_t max_bytes_;  // 0 = unbounded
  SpillTier* const spill_;  // not owned, may be null
  /// Nests *outside* the spill tier's locks (EvictLocked demotes victims
  /// to `spill_` under it).
  mutable Mutex mu_{lock_rank::kGraphStoreMu, "GraphStore::mu_"};
  ByteBudgetedLru<Slot> lru_ CYR_GUARDED_BY(mu_);  ///< memory tier
  ExpiryMarkers evicted_ CYR_GUARDED_BY(mu_);  ///< names answering kExpired
  /// 0 is reserved for "not live".
  uint64_t next_generation_ CYR_GUARDED_BY(mu_) = 1;
  GraphStoreStats stats_ CYR_GUARDED_BY(mu_);
};

}  // namespace cyclerank

#endif  // CYCLERANK_PLATFORM_GRAPH_STORE_H_
