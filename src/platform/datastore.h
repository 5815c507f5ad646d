#ifndef CYCLERANK_PLATFORM_DATASTORE_H_
#define CYCLERANK_PLATFORM_DATASTORE_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "datasets/catalog.h"
#include "graph/graph.h"
#include "platform/graph_store.h"
#include "platform/platform_options.h"
#include "platform/result_cache.h"
#include "platform/result_store.h"
#include "platform/spill_tier.h"
#include "platform/task.h"

namespace cyclerank {

class Env;

/// Snapshot of the two disk spill tiers' counters (default-constructed
/// zeros for tiers that are disabled) — the monitoring view of recovery
/// (`recovered_files` / `skipped_corrupt_files`), retry, and
/// circuit-breaker activity in one poll.
struct DatastoreSpillStats {
  SpillTierStats datasets;
  SpillTierStats results;
};

/// The Datastore of Fig. 1: "responsible for storing and managing
/// datasets. It also provides storage for results and logs produced by the
/// system."
///
/// A facade over two focused, individually-locked stores — one per
/// lifecycle:
///
///   - `GraphStore`  — uploaded datasets, byte-budgeted
///     (`PlatformOptions::graph_store_bytes`), least-recently-queried
///     eviction;
///   - `ResultStore` — per-task results and their logs, FIFO retention
///     (`max_retained_results`); a task's logs are dropped when its result
///     is evicted;
///
/// plus the byte-budgeted, memory-only `ResultCache` of completed results
/// (`result_cache_bytes`). Splitting the lifecycles means dataset and
/// result traffic never contend on one mutex, and each store owns exactly
/// one retention policy, its own demotion and reloads, under its own lock.
///
/// With `PlatformOptions::spill_dir` set, the facade additionally owns two
/// disk `SpillTier`s (`<spill_dir>/datasets`, `<spill_dir>/results`):
/// eviction from the graph and result stores *demotes* the victim to disk
/// instead of destroying it, later lookups transparently reload it, and the
/// tiers survive a process restart (recovery scan). Demotion enqueues into
/// each tier's write-behind buffer (bounded by `spill_write_behind_bytes`),
/// flushed to disk by a background thread, payloads stored verbatim;
/// `Flush()` is the durability barrier. An empty `spill_dir` keeps the
/// historical drop-on-evict behavior. A `cache/` directory that older
/// versions left under `spill_dir` is removed when the datastore opens.
///
/// Datasets resolve against (a) graphs uploaded at runtime ("users can
/// upload new datasets") and (b) an optional backing `DatasetCatalog` of
/// pre-loaded datasets. Results and per-task logs are written by executors
/// and read by the Status component / the gateway. All methods are
/// thread-safe.
class Datastore {
 public:
  /// `catalog` may be null for a datastore with only uploaded datasets; it
  /// must outlive the datastore. `options` carries every retention knob:
  /// `graph_store_bytes` (uploaded-dataset budget, 0 = unbounded),
  /// `result_cache_bytes` (0 disables caching; in-flight dedup in the
  /// scheduler stays active either way), `max_retained_results`
  /// (0 = unlimited), and the disk-tier knobs (`spill_dir`,
  /// `graph_spill_bytes`, `result_spill_bytes`). A non-empty `spill_dir`
  /// recovers any entries a previous process spilled there.
  ///
  /// `env` is the filesystem the spill tiers talk to: null (the default)
  /// means the real disk (`Env::Default()`); tests pass a
  /// `FaultInjectingEnv` to rehearse disk failures. Must outlive the
  /// datastore.
  explicit Datastore(DatasetCatalog* catalog = &DatasetCatalog::BuiltIn(),
                     const PlatformOptions& options = {},
                     Env* env = nullptr);

  Datastore(const Datastore&) = delete;
  Datastore& operator=(const Datastore&) = delete;

  // -- Datasets ------------------------------------------------------------

  /// Uploads `graph` under `name`. Uploaded names that would shadow a
  /// pre-loaded catalog name are rejected with `kAlreadyExists` — shadowing
  /// would make experiment provenance ambiguous. With a graph-store budget
  /// set, the upload may evict the least-recently-queried datasets (their
  /// names then answer `kExpired` from `GetDataset`), and a graph larger
  /// than the whole budget is rejected with a byte-stating
  /// `kInvalidArgument`. Eviction never interrupts running tasks: executors
  /// pin the immutable `GraphPtr` snapshot for a task's whole run, so an
  /// evicted graph's memory is reclaimed only when its last pin drops.
  Status PutDataset(const std::string& name, GraphPtr graph);

  /// Parses `content` (edgelist / pajek / ASD, auto-sniffed) and uploads it
  /// — the programmatic equivalent of the demo's upload form. Content
  /// larger than the graph-store budget is rejected *before* parsing with a
  /// byte-stating `kInvalidArgument` — an admission heuristic that keeps
  /// oversized request bodies from costing parse work. It is conservative:
  /// a verbosely-labeled text can parse to a smaller CSR that would have
  /// fit; upload such a dataset pre-parsed via `PutDataset`, which admits
  /// on the exact `MemoryBytes` figure. With a budget, the reader also
  /// refuses a graph of more than `budget / 16` nodes (declared or implied)
  /// with `kInvalidArgument` before allocating for it: such a graph could
  /// never fit, since each node costs 16 bytes of CSR offsets.
  Status UploadDataset(const std::string& name, const std::string& content);

  /// Fetches a dataset: uploaded first, then the backing catalog. Fetching
  /// an uploaded dataset bumps it to most-recently-queried (under the same
  /// lock as the lookup, so LRU order is race-free); an evicted name
  /// reports `kExpired`.
  Result<GraphPtr> GetDataset(const std::string& name);

  /// Names of uploaded datasets (catalog names come from the catalog).
  std::vector<std::string> UploadedDatasets() const { return graphs_.Names(); }

  /// The uploaded-datasets store (budget, stats — tests / monitoring).
  /// Const: writes must go through `PutDataset`/`UploadDataset`, which
  /// enforce the catalog-shadow check and result-cache invalidation.
  const GraphStore& graph_store() const { return graphs_; }

  /// Binding generation of `name` for fingerprinting (`TaskFingerprint`):
  /// a process-unique counter for live uploaded datasets, 0 for immutable
  /// catalog names, and *no value* when the name currently resolves to
  /// nothing (never uploaded, or evicted). Re-binding a name after
  /// eviction changes the generation, so two bindings never share a cache
  /// or single-flight key; an unresolvable name must not be keyed at all —
  /// "absent" is not a binding, and a result that only exists because an
  /// upload raced in between submit and fetch must not be served to later
  /// submissions that should answer `kExpired`/`kNotFound`.
  std::optional<uint64_t> DatasetCacheGeneration(
      const std::string& name) const {
    const uint64_t generation = graphs_.Generation(name);
    if (generation != 0) return generation;
    if (catalog_ != nullptr && catalog_->Info(name).ok()) return 0;
    return std::nullopt;
  }

  // -- Results -------------------------------------------------------------

  /// Stores the result of a finished task (overwrites on retry without
  /// refreshing its retention slot). When `max_retained_results` is set,
  /// the oldest results are evicted FIFO past the bound — demoted to the
  /// result spill tier when one is configured, destroyed otherwise. Their
  /// logs are dropped either way: logs follow the *memory* lifetime (a
  /// reloaded result returns without its log trail).
  void PutResult(TaskResult result) { results_.Put(std::move(result)); }

  /// The stored result; a result evicted to the spill tier is transparently
  /// reloaded (and re-admitted to the memory tier, possibly demoting the
  /// oldest). `kExpired` when retention destroyed it — with a message that
  /// distinguishes "pruned from the disk tier" from plain memory expiry —
  /// and `kNotFound` when it was never stored. (Eviction markers are
  /// themselves FIFO-bounded, so tasks far past the retention horizon
  /// eventually report `kNotFound` again — the marker set cannot grow
  /// without bound either.)
  Result<TaskResult> GetResult(const std::string& task_id) {
    return results_.Get(task_id);
  }

  /// True only for live (non-evicted) results.
  bool HasResult(const std::string& task_id) const {
    return results_.Has(task_id);
  }

  /// Number of live stored results (tests / monitoring).
  size_t NumStoredResults() const { return results_.size(); }

  /// The disk spill tiers (stats, tests / monitoring); null without a
  /// `spill_dir`.
  const SpillTier* dataset_spill() const { return dataset_spill_.get(); }
  const SpillTier* result_spill() const { return result_spill_.get(); }

  /// Blocks until every write-behind buffer has reached disk — the
  /// durability barrier for tests and orderly shutdown — then reports
  /// whether every buffered write actually made it: buffered payloads a
  /// tier's flush thread could not write (disk failure even after
  /// retries) surface here as the first tier's error Status, instead of
  /// vanishing into a log line. All tiers are drained regardless of
  /// individual failures. OK without a `spill_dir`.
  Status Flush();

  /// One-poll snapshot of both spill tiers' counters (zeros for
  /// disabled tiers): recovery-scan results, retries, breaker state.
  DatastoreSpillStats SpillStats() const;

  /// Byte-budgeted LRU over completed task results, keyed by
  /// `TaskFingerprint`. The scheduler serves repeated queries from it
  /// instead of re-running kernels; it lives here because the datastore is
  /// the storage component every executor already shares.
  ResultCache& result_cache() { return result_cache_; }

  // -- Logs ----------------------------------------------------------------

  /// Appends one log line for `task_id`.
  void AppendLog(const std::string& task_id, std::string line) {
    results_.AppendLog(task_id, std::move(line));
  }

  /// All log lines of `task_id`, oldest first (empty if none).
  std::vector<std::string> GetLog(const std::string& task_id) const {
    return results_.GetLog(task_id);
  }

 private:
  DatasetCatalog* catalog_;  // not owned, may be null
  // The spill tiers are declared before the stores so they outlive them:
  // each store holds a raw pointer into its tier.
  std::unique_ptr<SpillTier> dataset_spill_;  ///< null without a spill_dir
  std::unique_ptr<SpillTier> result_spill_;   ///< null without a spill_dir
  GraphStore graphs_;
  ResultStore results_;
  ResultCache result_cache_;
};

}  // namespace cyclerank

#endif  // CYCLERANK_PLATFORM_DATASTORE_H_
