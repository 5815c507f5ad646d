#include "platform/graph_store.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/mutex.h"

namespace cyclerank {
namespace {

/// Defers `Graph::Serialize` to the spill tier's flush thread: eviction
/// enqueues the still-live snapshot in O(1) and the serialization cost
/// moves off the store lock entirely. The shared_ptr pins the graph until
/// the flush (or a buffered read) is done with it.
class GraphSpillPayload final : public SpillPayload {
 public:
  explicit GraphSpillPayload(GraphPtr graph) : graph_(std::move(graph)) {}
  std::string Serialize() const override { return graph_->Serialize(); }
  size_t ApproxBytes() const override { return graph_->MemoryBytes(); }

 private:
  const GraphPtr graph_;
};

}  // namespace

GraphStore::GraphStore(size_t max_bytes, SpillTier* spill)
    : max_bytes_(max_bytes), spill_(spill), lru_(max_bytes) {
  if (spill_ == nullptr) return;
  // Recovered spill entries carry the generations a previous process
  // assigned. Resuming the counter past the largest one keeps generations
  // process-unique *across* restarts: a fresh upload can never collide
  // with a recovered binding's fingerprint. (No thread can race the
  // constructor; the lock is taken so the guarded write is provably
  // consistent with the annotation.)
  MutexLock lock(mu_);
  next_generation_ = std::max(next_generation_, spill_->MaxMeta() + 1);
}

Status GraphStore::Put(const std::string& name, GraphPtr graph) {
  if (name.empty()) {
    return Status::InvalidArgument("graph store: dataset name must not be empty");
  }
  if (!graph) {
    return Status::InvalidArgument("graph store: graph must not be null");
  }
  const size_t bytes = graph->MemoryBytes();
  MutexLock lock(mu_);
  if (max_bytes_ != 0 && bytes > max_bytes_) {
    ++stats_.rejections;
    return Status::InvalidArgument(
        "graph store: dataset '" + name + "' needs " + std::to_string(bytes) +
        " bytes, larger than the entire graph-store budget of " +
        std::to_string(max_bytes_) + " bytes");
  }
  if (lru_.Contains(name)) {
    return Status::AlreadyExists("dataset '" + name + "' already uploaded");
  }
  // A dataset demoted to disk is still uploaded — merely colder. Letting a
  // re-upload silently replace it would make "can I re-use this name?"
  // depend on which tier the old binding happens to occupy.
  if (spill_ != nullptr && spill_->Contains(name)) {
    return Status::AlreadyExists("dataset '" + name +
                                 "' already uploaded (resident in the disk "
                                 "spill tier)");
  }
  // Re-uploading an evicted name revives it.
  evicted_.Revive(name);
  lru_.Insert(name, Slot{std::move(graph), next_generation_++, {}}, bytes);
  ++stats_.uploads;
  EvictLocked();
  return Status::OK();
}

Result<GraphPtr> GraphStore::Get(const std::string& name) {
  MutexLock lock(mu_);
  // Bump recency under the same lock as the lookup: a concurrent upload
  // deciding what to evict always observes a consistent LRU order.
  if (Slot* slot = lru_.Touch(name)) {
    ++stats_.hits;
    return slot->graph;
  }
  if (spill_ != nullptr) {
    GraphPtr reloaded = ReloadLocked(name);
    if (reloaded != nullptr) {
      ++stats_.hits;
      ++stats_.reloads;
      return reloaded;
    }
  }
  ++stats_.misses;
  if (spill_ != nullptr && spill_->WasPruned(name)) {
    return Status::Expired(
        "dataset '" + name +
        "' was evicted from memory, spilled to disk, and then pruned by "
        "the spill byte budget (" + std::to_string(spill_->max_bytes()) +
        " bytes); re-upload it to query again");
  }
  if (evicted_.Contains(name)) {
    return Status::Expired(
        "dataset '" + name +
        "' was evicted by the graph-store byte budget (" +
        std::to_string(max_bytes_) + " bytes); re-upload it to query again");
  }
  return Status::NotFound("dataset '" + name + "' not found");
}

size_t GraphStore::SlotBytes(const Slot& slot) {
  size_t bytes = slot.graph->MemoryBytes();
  for (const auto& [shards, view] : slot.sharded) bytes += view->MemoryBytes();
  return bytes;
}

Result<ShardedGraphPtr> GraphStore::GetSharded(const std::string& name,
                                               const GraphPtr& pinned,
                                               uint32_t num_shards) {
  if (!pinned) {
    return Status::InvalidArgument(
        "graph store: GetSharded needs a pinned graph");
  }
  if (num_shards == 0) {
    return Status::InvalidArgument(
        "graph store: GetSharded needs num_shards >= 1");
  }
  {
    MutexLock lock(mu_);
    Slot* slot = lru_.Touch(name);
    // Identity, not name equality: the slot must still bind the caller's
    // snapshot, or the cached view would mirror a different binding.
    if (slot != nullptr && slot->graph == pinned) {
      auto it = slot->sharded.find(num_shards);
      if (it != slot->sharded.end()) {
        ++stats_.sharded_hits;
        return it->second;
      }
    }
  }

  // Build outside the lock: an O(nodes + edges) row copy must not stall
  // every Get/Put on the store.
  static const ContiguousRangePartitioner kPartitioner;
  CYCLERANK_ASSIGN_OR_RETURN(ShardedGraph built,
                             ShardedGraph::Build(pinned, num_shards,
                                                 kPartitioner));
  auto view = std::make_shared<const ShardedGraph>(std::move(built));

  MutexLock lock(mu_);
  ++stats_.sharded_builds;
  Slot* slot = lru_.Touch(name);
  if (slot == nullptr || slot->graph != pinned) {
    // The name was evicted/re-bound while we built, or it is a catalog
    // dataset the store never held: hand the view back uncached.
    return view;
  }
  if (auto it = slot->sharded.find(num_shards); it != slot->sharded.end()) {
    // A concurrent builder won the race; serve its view, drop ours.
    return it->second;
  }
  const size_t new_bytes = SlotBytes(*slot) + view->MemoryBytes();
  if (max_bytes_ != 0 && new_bytes > max_bytes_) {
    // Caching would make this slot alone overflow the budget (EvictLocked
    // could then never satisfy it). Serve the view transiently.
    return view;
  }
  slot->sharded[num_shards] = view;
  lru_.Recharge(name, new_bytes);
  // The grown slot may push the store over budget: demote colder datasets.
  // Touch above made this slot most-recent, so it is never its own victim.
  EvictLocked();
  return view;
}

GraphPtr GraphStore::ReloadLocked(const std::string& name) {
  Result<SpillTier::Loaded> loaded = spill_->Get(name);
  if (!loaded.ok()) return nullptr;
  Result<Graph> decoded = Graph::Deserialize(loaded->payload);
  if (!decoded.ok()) {
    // The checksum passed but the codec rejected the bytes — a stale or
    // foreign file. Drop it so the name degrades to plain expiry instead
    // of failing every future lookup.
    CYCLERANK_LOG(kWarning) << "graph store: dropping undecodable spill of '"
                            << name << "': " << decoded.status().ToString();
    spill_->Erase(name);
    return nullptr;
  }
  auto graph = std::make_shared<const Graph>(std::move(decoded).value());
  const size_t bytes = graph->MemoryBytes();
  if (max_bytes_ != 0 && bytes > max_bytes_) {
    // The memory budget shrank below this dataset since it was admitted
    // (options changed across a restart). Serve the pinned snapshot
    // without re-admitting it; the disk copy stays authoritative.
    return graph;
  }
  evicted_.Revive(name);
  const uint64_t generation = loaded->meta;
  next_generation_ = std::max(next_generation_, generation + 1);
  lru_.Insert(name, Slot{graph, generation, {}}, bytes);
  // Promotion copies up — the disk entry is kept, so a later eviction of a
  // clean entry skips re-serialization and a restart still recovers it.
  EvictLocked();
  return graph;
}

void GraphStore::EvictLocked() {
  if (max_bytes_ == 0) return;
  while (lru_.OverBudget() && lru_.size() > 1) {
    // The least-recently-queried dataset goes first; the entry just
    // inserted sits at the front and already fits the budget alone, so the
    // loop always terminates before reaching it. Dropping the store's
    // reference never frees a graph an executor still pins.
    std::optional<ByteBudgetedLru<Slot>::Entry> victim = lru_.PopLeastRecent();
    ++stats_.evictions;
    if (spill_ != nullptr) {
      // Demote to disk instead of destroying — unless the tier already
      // holds this exact binding (a promoted reload), in which case the
      // bytes on disk are already right.
      if (spill_->Meta(victim->key) == victim->value.generation) {
        ++stats_.spills;
      } else {
        // Hand the tier a deferred payload: the tier enqueues the
        // GraphPtr and returns — serialization happens on the flush
        // thread, not under this store's lock.
        const Status spilled = spill_->Put(
            victim->key,
            std::make_shared<const GraphSpillPayload>(victim->value.graph),
            victim->value.generation);
        if (spilled.ok()) {
          ++stats_.spills;
        } else {
          CYCLERANK_LOG(kWarning)
              << "graph store: could not spill evicted dataset '"
              << victim->key << "': " << spilled.ToString()
              << "; dropping it instead";
        }
      }
    }
    evicted_.Mark(victim->key);
  }
  evicted_.Bound(kMaxEvictionMarkers);
}

uint64_t GraphStore::Generation(const std::string& name) const {
  MutexLock lock(mu_);
  if (const Slot* slot = lru_.Find(name)) return slot->generation;
  // A spilled dataset keeps its binding generation — it is the same
  // binding, merely demoted — so fingerprints (and cached results) survive
  // the round trip to disk.
  if (spill_ != nullptr) {
    if (std::optional<uint64_t> meta = spill_->Meta(name)) return *meta;
  }
  return 0;
}

std::vector<std::string> GraphStore::Names() const {
  MutexLock lock(mu_);
  std::vector<std::string> out = lru_.Keys();
  if (spill_ != nullptr) {
    // Disk-resident datasets are uploaded too; merge the tiers.
    std::vector<std::string> spilled = spill_->Keys();
    out.insert(out.end(), spilled.begin(), spilled.end());
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return out;
}

GraphStoreStats GraphStore::stats() const {
  MutexLock lock(mu_);
  GraphStoreStats snapshot = stats_;
  snapshot.entries = lru_.size();
  snapshot.bytes = lru_.bytes();
  return snapshot;
}

}  // namespace cyclerank
