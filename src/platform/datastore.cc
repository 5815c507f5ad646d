#include "platform/datastore.h"

#include <memory>
#include <utility>

#include "common/env.h"
#include "graph/io.h"
#include "platform/params.h"

namespace cyclerank {

namespace {

/// One spill tier per payload kind, as `<spill_dir>/<subdir>`; null when
/// spilling is disabled (empty `spill_dir`). Every tier inherits the
/// write-behind buffer bound and the failure-handling knobs (retry
/// budget/backoff, breaker probe interval), and talks to the caller's
/// `Env` (null = the real disk).
std::unique_ptr<SpillTier> MakeSpillTier(const PlatformOptions& options,
                                         Env* env, const char* subdir,
                                         size_t max_bytes, const char* what) {
  if (options.spill_dir.empty()) return nullptr;
  SpillTierOptions tier;
  tier.max_bytes = max_bytes;
  tier.write_behind_bytes = options.spill_write_behind_bytes;
  tier.env = env;
  tier.retry_limit = static_cast<int>(options.spill_retry_limit);
  tier.retry_backoff_ms = options.spill_retry_backoff_ms;
  tier.breaker_probe_ms = options.spill_breaker_probe_ms;
  return std::make_unique<SpillTier>(options.spill_dir + "/" + subdir, tier,
                                     what);
}

/// Deletes `<spill_dir>/cache/`, the result cache's disk tier in older
/// versions: nothing reads it and no byte budget counts it.
void RemoveRetiredCacheTier(const PlatformOptions& options, Env* env) {
  if (options.spill_dir.empty()) return;
  if (env == nullptr) env = Env::Default();
  const std::string dir = options.spill_dir + "/cache";
  const Result<std::vector<std::string>> listing = env->ListDir(dir);
  if (!listing.ok()) return;  // the usual case: there is none
  for (const std::string& filename : *listing) {
    RemoveSpillLeftover(env, dir + "/" + filename);
  }
  RemoveSpillLeftover(env, dir);  // the directory, once emptied
}

}  // namespace

Datastore::Datastore(DatasetCatalog* catalog, const PlatformOptions& options,
                     Env* env)
    : catalog_(catalog),
      dataset_spill_(MakeSpillTier(options, env, "datasets",
                                   options.graph_spill_bytes, "dataset")),
      result_spill_(MakeSpillTier(options, env, "results",
                                  options.result_spill_bytes, "result")),
      graphs_(options.graph_store_bytes, dataset_spill_.get()),
      results_(options.max_retained_results, result_spill_.get()),
      result_cache_(options.result_cache_bytes) {
  RemoveRetiredCacheTier(options, env);
}

Status Datastore::Flush() {
  // Drain every tier before reporting: a failure in the first must not
  // leave the others' buffers unflushed.
  Status first = Status::OK();
  for (SpillTier* tier : {dataset_spill_.get(), result_spill_.get()}) {
    if (tier == nullptr) continue;
    const Status flushed = tier->Flush();
    if (!flushed.ok() && first.ok()) first = flushed;
  }
  return first;
}

DatastoreSpillStats Datastore::SpillStats() const {
  DatastoreSpillStats stats;
  if (dataset_spill_ != nullptr) stats.datasets = dataset_spill_->stats();
  if (result_spill_ != nullptr) stats.results = result_spill_->stats();
  return stats;
}

Status Datastore::PutDataset(const std::string& name, GraphPtr graph) {
  if (name.empty()) {
    return Status::InvalidArgument("datastore: dataset name must not be empty");
  }
  if (!graph) {
    return Status::InvalidArgument("datastore: graph must not be null");
  }
  if (catalog_ != nullptr && catalog_->Info(name).ok()) {
    return Status::AlreadyExists("dataset '" + name +
                                 "' exists in the pre-loaded catalog");
  }
  CYCLERANK_RETURN_NOT_OK(graphs_.Put(name, std::move(graph)));
  // The result cache is keyed by dataset *name*; binding the name to new
  // content (a fresh upload, or re-uploading an evicted name) must drop any
  // results computed against the previous binding, or the cache would serve
  // the old graph's rankings for the new one. A no-op for never-seen names.
  (void)result_cache_.ErasePrefix(DatasetFingerprintPrefix(name));
  return Status::OK();
}

Status Datastore::UploadDataset(const std::string& name,
                                const std::string& content) {
  // Admission heuristic before any parse work, on the one figure known
  // without parsing: a request body past the whole graph-store budget is
  // rejected outright rather than buffered and parsed. Deliberately
  // conservative — a verbosely-labeled text can parse to a smaller CSR
  // that would have fit; such a dataset must be uploaded pre-parsed via
  // PutDataset, which admits on the exact MemoryBytes figure.
  const size_t budget = graphs_.max_bytes();
  if (budget != 0 && content.size() > budget) {
    return Status::InvalidArgument(
        "datastore: upload '" + name + "' is " +
        std::to_string(content.size()) +
        " bytes, larger than the graph-store budget of " +
        std::to_string(budget) + " bytes; rejected before parsing");
  }
  // Every node costs at least 16 bytes of offsets in MemoryBytes(), so a
  // graph of more than budget / 16 nodes could never be stored: the reader
  // refuses it before allocating for it.
  GraphBuildOptions build;
  if (budget != 0) build.max_nodes = budget / 16;
  CYCLERANK_ASSIGN_OR_RETURN(Graph graph, ReadGraphFromString(content, build));
  return PutDataset(name, std::make_shared<Graph>(std::move(graph)));
}

Result<GraphPtr> Datastore::GetDataset(const std::string& name) {
  // Uploaded first: PutDataset rejects uploads that would shadow catalog
  // names, but the catalog is runtime-extensible (Register), so a name
  // uploaded *before* a later catalog registration must keep resolving to
  // the upload. Only never-uploaded names fall through; an evicted name
  // answers kExpired, not NotFound — the caller should learn the dataset
  // needs re-uploading, not suspect a typo.
  Result<GraphPtr> uploaded = graphs_.Get(name);
  if (uploaded.ok()) return uploaded;
  if (uploaded.status().code() == StatusCode::kNotFound &&
      catalog_ != nullptr) {
    return catalog_->Load(name);
  }
  return uploaded.status();
}

}  // namespace cyclerank
