#ifndef CYCLERANK_PLATFORM_SPILL_TIER_H_
#define CYCLERANK_PLATFORM_SPILL_TIER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "platform/byte_lru.h"
#include "platform/expiry_markers.h"

namespace cyclerank {

class Env;

/// Occupancy and effectiveness counters of a `SpillTier`.
struct SpillTierStats {
  uint64_t spills = 0;   ///< entries the flush thread persisted to disk
  uint64_t reloads = 0;  ///< `Get` calls served from disk
  uint64_t buffer_hits = 0;  ///< `Get` calls served from the write-behind
                             ///< buffer before the entry reached disk
  uint64_t misses = 0;   ///< `Get` calls with no spill file (filter-positive)
  uint64_t filter_negatives = 0;  ///< `Get`/`Contains` misses answered by the
                                  ///< key filter alone — no lock, no disk
  uint64_t backpressure_waits = 0;  ///< `Put` calls that blocked on the
                                    ///< write-behind byte bound
  uint64_t prunes = 0;   ///< entries dropped to respect the disk budget
  uint64_t recovered_files = 0;  ///< entries restored by the recovery scan
  uint64_t skipped_corrupt_files = 0;  ///< corrupt/truncated files skipped
                                       ///< (recovery or Get)
  uint64_t retries = 0;  ///< disk operations re-attempted after a failure
  uint64_t retry_exhausted = 0;  ///< operations that failed every attempt
  uint64_t breaker_trips = 0;    ///< circuit breaker closed → open edges
  uint64_t breaker_probes = 0;   ///< operations admitted as recovery probes
  uint64_t breaker_recoveries = 0;  ///< breaker open → closed edges
  uint64_t breaker_rejects = 0;  ///< operations fast-failed while open
  uint64_t flush_failures = 0;   ///< write-behind payloads that never
                                 ///< reached disk (marked pruned)
  bool breaker_open = false;  ///< tier currently degraded to memory-only
  size_t entries = 0;    ///< live spilled entries (on disk)
  size_t bytes = 0;      ///< on-disk (encoded) bytes of live entries
  size_t raw_bytes = 0;  ///< uncompressed payload bytes of live entries
  size_t queue_depth = 0;   ///< entries waiting in the write-behind buffer
  size_t buffer_bytes = 0;  ///< approximate bytes held by the buffer
};

/// Tuning knobs of a `SpillTier`, separate from the directory and payload
/// kind so call sites read as prose.
struct SpillTierOptions {
  /// Disk byte budget (on-disk file bytes); 0 = unbounded.
  size_t max_bytes = 0;

  /// Byte bound of the in-memory write-behind buffer. `Put` enqueues the
  /// still-live payload and returns; a dedicated background thread does
  /// the serialize/compress/write off the caller's lock. Past the bound,
  /// `Put` blocks until the flusher drains (backpressure) — the buffer can
  /// never grow without limit. A payload larger than the bound is admitted
  /// alone.
  size_t write_behind_bytes = 32u << 20;  // 32 MiB

  /// Filesystem used for every disk operation; nullptr = `Env::Default()`
  /// (the real filesystem). Tests substitute a `FaultInjectingEnv`.
  Env* env = nullptr;

  /// Retries after a failed data-file read or write before the operation
  /// is reported failed (and the circuit breaker trips). 0 disables
  /// retrying.
  int retry_limit = 3;

  /// Delay before the first retry, doubled per retry and capped at
  /// 100 ms; 0 retries without sleeping (tests).
  uint64_t retry_backoff_ms = 1;

  /// Once the circuit breaker opens, how long to fast-fail before letting
  /// one operation through as a recovery probe; 0 probes on the next
  /// operation (tests).
  uint64_t breaker_probe_ms = 1000;
};

/// A payload handed to `SpillTier::Put`: serialization is *deferred* so
/// the write-behind flush thread — not the evicting caller — pays for it.
/// `Serialize` must be const-thread-safe (it may run on the flush thread
/// concurrently with buffer reads); `ApproxBytes` feeds the write-behind
/// byte accounting and need only be a decent estimate.
class SpillPayload {
 public:
  virtual ~SpillPayload() = default;
  virtual std::string Serialize() const = 0;
  virtual size_t ApproxBytes() const = 0;
};

using SpillPayloadPtr = std::shared_ptr<const SpillPayload>;

/// Wraps already-materialized bytes (tests, small payloads).
SpillPayloadPtr MakeBytesSpillPayload(std::string bytes);

/// The disk tier of the datastore's storage hierarchy: when a byte-budgeted
/// in-memory store evicts under pressure, the victim is *demoted* here
/// instead of destroyed, and a later lookup transparently reloads it.
///
/// Since PR 6 the tier is structured along LSM lines:
///
///   Put ──▶ write-behind buffer ──(background flush thread)──▶ disk file
///            (read-your-write)      serialize → compress →
///                                   checksum → tmp → rename
///
/// - **Write-behind** (the only `Put` path): `Put` enqueues the still-live
///   payload and returns — eviction never pays for serialization and file
///   IO under the owning store's lock. Reads check the buffer before disk,
///   so an entry is never invisible between enqueue and flush; destruction
///   drains the buffer (nothing enqueued is ever lost to a clean shutdown)
///   and `Flush()` is the durability barrier: an entry is on disk once
///   `Put` and a later `Flush()` both returned OK. Past the
///   `write_behind_bytes` bound `Put` blocks until the flusher catches up.
/// - **Compression**: every file is written block-compressed (v2 framing,
///   `binio::CompressBlock`) with the checksum still computed over the
///   *raw* payload — bit-rot detection is unchanged, and a corrupt
///   compressed block degrades to a miss exactly like a checksum mismatch.
///   v1 (uncompressed) files are no longer written but load transparently
///   forever.
/// - **Key filter**: a lock-free Bloom filter over every key ever stored
///   (rebuilt from the recovery scan at construction) answers "definitely
///   not on disk" without taking the tier lock or touching the filesystem
///   — cold misses cost two hash probes, even while a flush or reload is
///   holding the lock for file IO.
///
/// **Failure handling** (PR 8): every disk operation goes through the
/// tier's `Env`. Data reads and writes run under a deterministic
/// bounded-exponential retry (`retry_limit`, `retry_backoff_ms`); an
/// operation that fails every attempt trips a per-tier circuit breaker.
/// While the breaker is open the tier degrades to the documented
/// memory-only behavior — `Put` fast-fails `kUnavailable` (the key is
/// marked pruned so later lookups answer "stored and dropped", never a
/// wrong result), disk reads answer `kUnavailable` without touching the
/// device, and buffered flushes drop their payloads as pruned. Every
/// `breaker_probe_ms` one operation is admitted as a probe; a probe that
/// succeeds closes the breaker and the tier resumes normal service.
/// Write-behind flush failures are counted and surface as a real `Status`
/// from `Flush()`.
///
/// One tier manages one directory of self-describing files (magic +
/// version + metadata word + payload checksum + the original key + the
/// payload), plus a `manifest` recording recency order. Construction runs a
/// recovery scan: the manifest seeds the LRU order, unlisted valid files
/// are appended coldest-last, and corrupt or truncated files are skipped
/// with a logged warning — a half-written file from a crash can never take
/// recovery down. The tier is itself byte-budgeted (`max_bytes`, 0 =
/// unbounded, accounted in on-disk file bytes): past the budget the
/// least-recently-used entries are pruned, and their keys then answer
/// `WasPruned` so the owning store can tell "expired (pruned from disk)"
/// apart from "never stored".
///
/// The payload is opaque bytes — `GraphStore` spills `Graph::Serialize`
/// output, the `Datastore` facade and the `ResultCache` spill
/// `SerializeTaskResult` output. The `meta` word rides along uninterpreted
/// (the graph tier stores the binding generation in it, so revived
/// datasets keep their fingerprint).
///
/// Thread-safe. Two locks: `buffer_mu_` guards the write-behind buffer,
/// `mu_` guards the disk index; the fixed acquisition order is
/// `buffer_mu_` then `mu_` (never the reverse), and the Bloom filter is
/// read and written lock-free.
class SpillTier {
 public:
  /// Bound on remembered pruned keys, mirroring
  /// `GraphStore::kMaxEvictionMarkers`.
  static constexpr size_t kMaxPrunedMarkers = 4096;

  /// Opens (or creates) `dir` and recovers any entries a previous process
  /// left there. `what` names the payload kind in errors and log lines
  /// ("dataset", "result"). If the directory cannot be created the tier
  /// logs an error and comes up disabled: `Put` then fails with
  /// `kFailedPrecondition` and every `Get` misses — the owning store
  /// degrades to drop-on-evict instead of crashing.
  SpillTier(std::string dir, SpillTierOptions options, std::string what);

  SpillTier(const SpillTier&) = delete;
  SpillTier& operator=(const SpillTier&) = delete;

  /// Drains the write-behind buffer (every enqueued entry reaches disk),
  /// then stops the flush thread.
  ~SpillTier();

  /// False when the directory could not be initialized.
  bool enabled() const { return enabled_; }

  /// Enqueues `payload` under `key` (superseding any previous spill of the
  /// key) and returns `OK`; serialization, the oversize check, the write,
  /// and pruning all happen on the flush thread. An entry whose file alone
  /// exceeds the whole budget is marked pruned there, with a logged
  /// warning; a write that fails is reported by the next `Flush()`.
  Status Put(const std::string& key, SpillPayloadPtr payload,
             uint64_t meta = 0) CYR_EXCLUDES(buffer_mu_, mu_);

  /// Convenience overload for already-materialized bytes.
  Status Put(const std::string& key, std::string_view payload,
             uint64_t meta = 0) CYR_EXCLUDES(buffer_mu_, mu_);

  struct Loaded {
    std::string payload;
    uint64_t meta = 0;
  };

  /// Serves `key` from the write-behind buffer if it has not been flushed
  /// yet (read-your-write), else reads its spill file, bumping it to
  /// most-recently-used. The payload checksum is re-verified: a corrupt
  /// file is dropped with a logged warning and reported as `kIOError`. A
  /// file that cannot be *read* (transient disk error) is retried and, if
  /// still failing, reported `kIOError`/`kUnavailable` with the entry left
  /// intact — a flaky disk must not destroy data that is fine. A pruned
  /// key answers `kExpired`; an unknown key `kNotFound` — answered by the
  /// lock-free key filter when the key was never stored, without touching
  /// the tier lock or the filesystem.
  Result<Loaded> Get(const std::string& key)
      CYR_EXCLUDES(buffer_mu_, mu_);

  /// True while `key` has a live spill file or a buffered write.
  bool Contains(const std::string& key) const
      CYR_EXCLUDES(buffer_mu_, mu_);

  /// The `meta` word stored with `key`, without touching recency or disk;
  /// nullopt when the key has no live spill file or buffered write.
  std::optional<uint64_t> Meta(const std::string& key) const
      CYR_EXCLUDES(buffer_mu_, mu_);

  /// True while `key`'s pruning (by budget, oversize rejection, or
  /// corruption) is still remembered.
  bool WasPruned(const std::string& key) const CYR_EXCLUDES(mu_);

  /// Drops `key`'s spill file and any buffered write without marking it
  /// pruned — the caller is superseding the entry (e.g. a fresh upload
  /// re-binding a dataset name), not evicting it under pressure.
  void Erase(const std::string& key) CYR_EXCLUDES(buffer_mu_, mu_);

  /// The flush thread rewrites the manifest when its queue drains, or after
  /// this many files flushed since the last rewrite while the queue stays
  /// busy: a crash mid-burst then leaves at most this many files unlisted
  /// (recovered, but as the coldest entries).
  static constexpr size_t kManifestBatchFiles = 16;

  /// Drops every live entry (buffered or on disk) whose key starts with
  /// `prefix`; returns how many. Used by the `ResultCache` to invalidate a
  /// re-bound dataset's spilled results alongside its in-memory ones.
  size_t ErasePrefix(const std::string& prefix)
      CYR_EXCLUDES(buffer_mu_, mu_);

  /// Blocks until every buffered write has reached disk or been dropped
  /// and the flush thread is idle (manifest rewrite included, so no `Env`
  /// call of the tier is still in flight) — the barrier for tests,
  /// shutdown, and anything that needs durability now. Returns OK when everything drained to disk; otherwise an error
  /// naming how many payloads were lost since the last `Flush()` report
  /// (each loss is also marked pruned and counted in `flush_failures`).
  /// Must not be called while flushing is paused.
  Status Flush() CYR_EXCLUDES(buffer_mu_, mu_);

  /// Test hook: true stalls the flush thread (entries stay buffered and
  /// observable), false resumes it. Destruction overrides a pause.
  void SetFlushPausedForTest(bool paused) CYR_EXCLUDES(buffer_mu_);

  /// Keys of live entries (buffered or on disk), sorted.
  std::vector<std::string> Keys() const CYR_EXCLUDES(buffer_mu_, mu_);

  /// Largest `meta` word across live entries (0 when empty) — lets
  /// `GraphStore` restart its generation counter past every recovered
  /// binding.
  uint64_t MaxMeta() const CYR_EXCLUDES(buffer_mu_, mu_);

  SpillTierStats stats() const CYR_EXCLUDES(buffer_mu_, mu_);
  size_t max_bytes() const { return options_.max_bytes; }
  const std::string& dir() const { return dir_; }

 private:
  struct Info {
    uint64_t meta = 0;
    uint64_t raw_bytes = 0;  ///< uncompressed payload size
  };

  /// One write awaiting flush. The entry stays in `pending_` (readable)
  /// until its bytes are durably indexed, so reads never lose it; `seq`
  /// detects overwrites that race an in-flight flush.
  struct PendingWrite {
    SpillPayloadPtr payload;
    uint64_t meta = 0;
    uint64_t seq = 0;
    size_t approx_bytes = 0;
    bool queued = false;  ///< present in flush_queue_
  };

  /// Scans `dir_` for spill files, seeds the LRU from the manifest, and
  /// prunes past the budget; requires `mu_`.
  void RecoverLocked() CYR_REQUIRES(mu_);

  /// The flush thread's main loop: pop → serialize → encode → write →
  /// index, until stopped and drained.
  void FlushWorker() CYR_EXCLUDES(buffer_mu_, mu_);

  /// Flushes one buffered write (off both locks for the expensive parts).
  /// True when it indexed a new file, which leaves the manifest stale.
  bool FlushOne(const std::string& key, const SpillPayloadPtr& payload,
                uint64_t meta, uint64_t seq) CYR_EXCLUDES(buffer_mu_, mu_);

  /// Completes a successful flush: indexes the renamed file, then removes
  /// the buffer entry if its seq still matches (erased → the file is
  /// removed again; superseded → the newer flush owns the file), waking
  /// backpressure and Flush waiters. True when it indexed the file.
  bool FinishPending(const std::string& key, uint64_t seq, Info info,
                     size_t file_bytes) CYR_EXCLUDES(buffer_mu_, mu_);

  /// Removes `key` from the buffer if its seq still matches, without
  /// indexing anything (failed or oversize flush), waking waiters.
  void DropPending(const std::string& key, uint64_t seq)
      CYR_EXCLUDES(buffer_mu_, mu_);

  /// Writes `file` to `key`'s path via tmp + rename, under the retry /
  /// circuit-breaker policy (`GuardedIo`).
  Status WriteSpillFile(const std::string& key, std::string_view file)
      CYR_EXCLUDES(breaker_mu_);

  /// Reads `key`'s spill file into `*out` under the retry / breaker
  /// policy. Never modifies the index.
  Status ReadSpillFile(const std::string& key, std::string* out)
      CYR_EXCLUDES(breaker_mu_);

  /// Runs `op` (one disk operation, idempotent) under the tier's failure
  /// policy: fast-fails `kUnavailable` while the breaker is open and no
  /// probe is due; otherwise retries failures with deterministic backoff
  /// (a probe gets a single attempt). Success closes an open breaker;
  /// exhausting the retry budget trips it. `op_label` names the operation
  /// in log lines.
  Status GuardedIo(const char* op_label, const std::function<Status()>& op)
      CYR_EXCLUDES(breaker_mu_);

  /// True while the breaker is open and the probe interval has not yet
  /// elapsed — the cheap entry check that lets `Put` fast-fail without
  /// serializing anything.
  bool BreakerRejects() CYR_EXCLUDES(breaker_mu_);

  /// Inserts `key` into the disk index (replacing any previous entry) and
  /// maintains the raw-byte accounting; requires `mu_`.
  void IndexLocked(const std::string& key, Info info, size_t file_bytes)
      CYR_REQUIRES(mu_);

  /// Drops `key` from the disk index (not the filesystem), maintaining
  /// the raw-byte accounting; requires `mu_`.
  std::optional<ByteBudgetedLru<Info>::Entry> UnindexLocked(
      const std::string& key) CYR_REQUIRES(mu_);

  /// Prunes least-recently-used entries until the budget holds; requires
  /// `mu_`.
  void PruneLocked() CYR_REQUIRES(mu_);

  /// Rewrites the manifest (recency order, hottest first) atomically via a
  /// temp file + rename; requires `mu_`.
  void WriteManifestLocked() CYR_REQUIRES(mu_);

  /// Deletes `key`'s file from disk (best-effort); requires `mu_`.
  void RemoveFileLocked(const std::string& key) CYR_REQUIRES(mu_);

  std::string FilePath(const std::string& key) const;

  // Lock-free Bloom filter over every key ever stored (never removed —
  // stale positives fall through to the exact index, which is correct).
  static constexpr size_t kFilterWords = 1024;  // 64 Kbit, 8 KiB
  void FilterAdd(const std::string& key);
  bool FilterMayContain(const std::string& key) const;

  const std::string dir_;
  const SpillTierOptions options_;
  const std::string what_;  ///< payload kind for errors/logs
  Env* const env_;          ///< options_.env or Env::Default(); never null
  bool enabled_ = false;    ///< set once in the constructor, then read-only

  std::array<std::atomic<uint64_t>, kFilterWords> filter_{};
  mutable std::atomic<uint64_t> filter_negatives_{0};
  std::atomic<uint64_t> buffer_hits_{0};

  // Write-behind buffer state; guarded by buffer_mu_.
  mutable Mutex buffer_mu_{lock_rank::kSpillBufferMu, "SpillTier::buffer_mu_"};
  CondVar work_cv_;     ///< flush thread: work or stop
  CondVar drained_cv_;  ///< backpressure waiters
  CondVar flushed_cv_;  ///< Flush() waiters
  std::map<std::string, PendingWrite> pending_ CYR_GUARDED_BY(buffer_mu_);
  std::deque<std::string> flush_queue_ CYR_GUARDED_BY(buffer_mu_);
  size_t pending_bytes_ CYR_GUARDED_BY(buffer_mu_) = 0;
  uint64_t next_seq_ CYR_GUARDED_BY(buffer_mu_) = 0;
  uint64_t backpressure_waits_ CYR_GUARDED_BY(buffer_mu_) = 0;
  bool flush_paused_ CYR_GUARDED_BY(buffer_mu_) = false;
  /// The flush thread is writing an entry it popped (its file and index
  /// insert), or has indexed files whose manifest rewrite is still due,
  /// so `Flush()` must keep waiting.
  bool flushing_ CYR_GUARDED_BY(buffer_mu_) = false;
  bool stop_ CYR_GUARDED_BY(buffer_mu_) = false;
  // Started in the constructor, joined in the destructor; never touched
  // while another thread can see the tier — not guarded.
  std::thread flusher_;

  // Disk index state; guarded by mu_. Acquisition order: buffer_mu_ → mu_
  // (encoded in the lock ranks — kSpillBufferMu < kSpillIndexMu).
  mutable Mutex mu_{lock_rank::kSpillIndexMu, "SpillTier::mu_"};
  /// Key → meta/raw size; bytes = file size.
  ByteBudgetedLru<Info> lru_ CYR_GUARDED_BY(mu_);
  /// Sum of Info::raw_bytes over lru_.
  size_t raw_bytes_ CYR_GUARDED_BY(mu_) = 0;
  /// Keys answered with `WasPruned`.
  ExpiryMarkers pruned_ CYR_GUARDED_BY(mu_);
  SpillTierStats stats_ CYR_GUARDED_BY(mu_);
  /// Flush-thread losses not yet reported by a `Flush()` call; the sticky
  /// error is cleared when reported.
  uint64_t unreported_flush_failures_ CYR_GUARDED_BY(mu_) = 0;
  Status last_flush_error_ CYR_GUARDED_BY(mu_);

  // Circuit-breaker state; guarded by breaker_mu_ (taken under mu_ by
  // Get's disk read — kSpillIndexMu < kSpillBreakerMu — and standalone on
  // the flush thread; released around the actual Env call).
  mutable Mutex breaker_mu_{lock_rank::kSpillBreakerMu,
                            "SpillTier::breaker_mu_"};
  bool breaker_open_ CYR_GUARDED_BY(breaker_mu_) = false;
  /// When the breaker last tripped or last admitted a probe.
  std::chrono::steady_clock::time_point breaker_last_
      CYR_GUARDED_BY(breaker_mu_);
  uint64_t retries_ CYR_GUARDED_BY(breaker_mu_) = 0;
  uint64_t retry_exhausted_ CYR_GUARDED_BY(breaker_mu_) = 0;
  uint64_t breaker_trips_ CYR_GUARDED_BY(breaker_mu_) = 0;
  uint64_t breaker_probes_ CYR_GUARDED_BY(breaker_mu_) = 0;
  uint64_t breaker_recoveries_ CYR_GUARDED_BY(breaker_mu_) = 0;
  uint64_t breaker_rejects_ CYR_GUARDED_BY(breaker_mu_) = 0;
};

}  // namespace cyclerank

#endif  // CYCLERANK_PLATFORM_SPILL_TIER_H_
