#ifndef CYCLERANK_PLATFORM_DATASTORE_H_
#define CYCLERANK_PLATFORM_DATASTORE_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "datasets/catalog.h"
#include "graph/graph.h"
#include "platform/graph_store.h"
#include "platform/log_store.h"
#include "platform/platform_options.h"
#include "platform/result_cache.h"
#include "platform/result_store.h"
#include "platform/spill_tier.h"
#include "platform/task.h"

namespace cyclerank {

class Env;

/// Snapshot of the three disk spill tiers' counters (default-constructed
/// zeros for tiers that are disabled) — the monitoring view of recovery
/// (`recovered_files` / `skipped_corrupt_files`), retry, and
/// circuit-breaker activity in one poll.
struct DatastoreSpillStats {
  SpillTierStats datasets;
  SpillTierStats results;
  SpillTierStats cache;
};

/// The Datastore of Fig. 1: "responsible for storing and managing
/// datasets. It also provides storage for results and logs produced by the
/// system."
///
/// A facade over three focused, individually-locked stores — one per
/// lifecycle:
///
///   - `GraphStore`  — uploaded datasets, byte-budgeted
///     (`PlatformOptions::graph_store_bytes`), least-recently-queried
///     eviction;
///   - `ResultStore` — per-task results, FIFO retention
///     (`max_retained_results`);
///   - `LogStore`    — per-task logs, dropped when their result expires;
///
/// plus the byte-budgeted `ResultCache` of completed results
/// (`result_cache_bytes`). Splitting the lifecycles means dataset, result,
/// and log traffic never contend on one mutex, and each store owns exactly
/// one retention policy.
///
/// With `PlatformOptions::spill_dir` set, the facade additionally owns
/// three disk `SpillTier`s (`<spill_dir>/datasets`, `<spill_dir>/results`,
/// `<spill_dir>/cache`): eviction from the memory stores — including the
/// result cache — *demotes* the victim to disk instead of destroying it,
/// later lookups transparently reload it, and the tiers survive a process
/// restart (manifest + recovery scan). Demotion enqueues into each tier's
/// write-behind buffer (bounded by `spill_write_behind_bytes`), flushed by
/// a background thread that block-compresses payloads on disk; `Flush()`
/// is the durability barrier. An empty `spill_dir` keeps the historical
/// drop-on-evict behavior.
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
  /// on the exact `MemoryBytes` figure.
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
  void PutResult(TaskResult result) CYR_EXCLUDES(put_mu_);

  /// The stored result; a result evicted to the spill tier is transparently
  /// reloaded (and re-admitted to the memory tier, possibly demoting the
  /// oldest). `kExpired` when retention destroyed it — with a message that
  /// distinguishes "pruned from the disk tier" from plain memory expiry —
  /// and `kNotFound` when it was never stored. (Eviction markers are
  /// themselves FIFO-bounded, so tasks far past the retention horizon
  /// eventually report `kNotFound` again — the marker set cannot grow
  /// without bound either.)
  Result<TaskResult> GetResult(const std::string& task_id)
      CYR_EXCLUDES(put_mu_);

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
  const SpillTier* cache_spill() const { return cache_spill_.get(); }

  /// Blocks until every write-behind buffer has reached disk — the
  /// durability barrier for tests and orderly shutdown — then reports
  /// whether every buffered write actually made it: buffered payloads a
  /// tier's flush thread could not write (disk failure even after
  /// retries) surface here as the first tier's error Status, instead of
  /// vanishing into a log line. All tiers are drained regardless of
  /// individual failures. OK without a `spill_dir`.
  Status Flush();

  /// One-poll snapshot of all three spill tiers' counters (zeros for
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
    logs_.Append(task_id, std::move(line));
  }

  /// All log lines of `task_id`, oldest first (empty if none).
  std::vector<std::string> GetLog(const std::string& task_id) const {
    return logs_.Get(task_id);
  }

 private:
  /// Demotes retention-evicted results to the spill tier (when configured)
  /// and erases their logs; requires `put_mu_`.
  void DemoteEvictedResultsLocked(std::vector<TaskResult> evicted)
      CYR_REQUIRES(put_mu_);

  DatasetCatalog* catalog_;  // not owned, may be null
  // The spill tiers are declared before the stores so they outlive them on
  // both ends: GraphStore holds a raw pointer into dataset_spill_ and
  // ResultCache one into cache_spill_.
  std::unique_ptr<SpillTier> dataset_spill_;  ///< null without a spill_dir
  std::unique_ptr<SpillTier> result_spill_;   ///< null without a spill_dir
  std::unique_ptr<SpillTier> cache_spill_;    ///< null without a spill_dir
  GraphStore graphs_;
  ResultStore results_;
  LogStore logs_;
  ResultCache result_cache_;
  /// Orders result-write + log-erase pairs. Outermost of the store locks:
  /// DemoteEvictedResultsLocked reaches the result spill tier (and its
  /// logging) while holding it.
  mutable Mutex put_mu_{lock_rank::kDatastorePutMu, "Datastore::put_mu_"};
};

}  // namespace cyclerank

#endif  // CYCLERANK_PLATFORM_DATASTORE_H_
