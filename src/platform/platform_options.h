#ifndef CYCLERANK_PLATFORM_PLATFORM_OPTIONS_H_
#define CYCLERANK_PLATFORM_PLATFORM_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "platform/result_cache.h"

namespace cyclerank {

/// Every deployment knob of the platform stack in one struct, threaded
/// gateway → datastore → scheduler → executor. A deployment configures the
/// whole stack from one `key=value` string (`FromString`) instead of a
/// trail of loose constructor arguments:
///
/// ```
///   auto options = PlatformOptions::FromString(
///       "graph_store_bytes=256m, max_retained_results=10000, "
///       "num_workers=8").value();
///   Datastore store(&catalog, options);
///   ApiGateway gateway(&store, &registry, options);
/// ```
///
/// All knobs have production-safe defaults; `0` consistently means "no
/// bound / auto" (except `result_cache_bytes`, where 0 disables the cache —
/// in-flight single-flight dedup stays active either way).
struct PlatformOptions {
  /// Byte budget for uploaded datasets (`GraphStore`). Uploading past the
  /// budget evicts the least-recently-queried dataset (its name then
  /// answers `kExpired`); a single graph larger than the whole budget is
  /// rejected up front with a byte-stating error. Eviction never interrupts
  /// a running task: executors pin the `GraphPtr` snapshot for the task's
  /// whole run. 0 = unbounded (the historical behavior).
  size_t graph_store_bytes = 0;

  /// Byte budget of the completed-result LRU cache (`ResultCache`).
  /// 0 disables caching.
  size_t result_cache_bytes = ResultCache::kDefaultMaxBytes;

  /// Bound on stored per-task results; past it the oldest results (and
  /// their logs) are evicted FIFO and answer `kExpired`. 0 = unlimited.
  size_t max_retained_results = 0;

  /// Concurrently running tasks in the `Scheduler`. 0 = one per hardware
  /// thread (at least 1).
  size_t num_workers = 0;

  /// Kernel thread budget applied to tasks that carry no `threads=`
  /// parameter of their own (an explicit `threads=` always wins).
  /// 0 = every worker of the shared compute pool, the kernel default.
  /// Purely an execution knob: kernels are bit-identical at any count.
  uint32_t default_threads = 0;

  /// Seed of the gateway's comparison-id generator. Non-zero makes ids
  /// deterministic (tests); 0 = random ids.
  uint64_t uuid_seed = 0;

  /// Admission limit on tasks per `SubmitQuerySet` call; oversized query
  /// sets are rejected synchronously with `kInvalidArgument`. 0 = unlimited.
  size_t max_tasks_per_submission = 0;

  /// Root directory of the disk spill tier. When non-empty, datasets and
  /// results evicted by the byte budgets above are *demoted* to
  /// `<spill_dir>/datasets` and `<spill_dir>/results` instead of
  /// destroyed, transparently reloaded on the next lookup, and recovered
  /// after a process restart. Empty (the default) keeps the historical
  /// drop-on-evict behavior. The path must not contain the option
  /// grammar's separators (`,`, `;`, `=`) if it is to round-trip through
  /// `FromString`.
  std::string spill_dir;

  /// Byte budget of the dataset spill tier (on-disk file bytes); past it
  /// the least-recently-used spilled datasets are pruned — only then does
  /// an evicted name truly expire. 0 = unbounded disk use.
  size_t graph_spill_bytes = 0;

  /// Byte budget of the result spill tier; same semantics.
  size_t result_spill_bytes = 0;

  /// Byte bound of each spill tier's in-memory write-behind buffer.
  /// Demotion *enqueues* the victim and returns — a background flush
  /// thread serializes, checksums, writes and renames to disk off the
  /// store locks, and reads hit the buffer before disk so an entry is
  /// never invisible. Past the bound demotion blocks until the flusher
  /// catches up (backpressure). `FromString` rejects 0: there is no
  /// synchronous mode; `Datastore::Flush()` is the durability barrier.
  /// Payloads are written raw (CYSP3); the block-framed, LZ-compressed
  /// and unframed files of older processes still load.
  size_t spill_write_behind_bytes = 32u << 20;  // 32 MiB

  /// Retries after a failed spill disk operation (write or read) before
  /// the failure counts against the tier's circuit breaker. Retry delays
  /// are deterministic bounded exponential backoff starting at
  /// `spill_retry_backoff_ms`. 0 = fail on the first error; at most
  /// INT_MAX.
  size_t spill_retry_limit = 3;

  /// Delay before the first spill retry, doubled per retry, capped at
  /// 100 ms. 0 = retry immediately (tests).
  uint64_t spill_retry_backoff_ms = 1;

  /// With the circuit breaker open (a spill disk operation failed even
  /// after retries), how long the tier fast-fails disk work before
  /// admitting a single probe operation to test whether the disk healed.
  /// A successful probe closes the breaker. 0 = probe on the very next
  /// operation; below 2^32.
  uint64_t spill_breaker_probe_ms = 1000;

  /// Bound on tasks waiting for a scheduler worker. A submission that
  /// would queue past the bound is rejected synchronously with
  /// `kUnavailable` — fast-fail overload control instead of an unbounded
  /// backlog. Coalesced duplicates (single-flight followers) and cache
  /// hits do not occupy queue slots. 0 = unbounded (the historical
  /// behavior).
  size_t admission_queue_limit = 0;

  /// Deadline applied to tasks that carry no `deadline_ms=` parameter of
  /// their own (an explicit parameter always wins). A task whose deadline
  /// passes while it waits in the queue fast-fails `kDeadlineExceeded`
  /// without touching a kernel. Purely an execution knob — like `threads`
  /// it is excluded from task fingerprints. 0 = no deadline.
  uint64_t default_deadline_ms = 0;

  /// TCP port the network server (`net::NetServer` / `cyclerankd`) binds.
  /// 0 = pick an ephemeral port (tests; the bound port is reported by
  /// `NetServer::port()`). The `cyclerankd` daemon substitutes its default
  /// port 7433 when launched without an options string.
  uint16_t listen_port = 0;

  /// Bound on concurrently connected network clients. A connection past
  /// the bound is answered with a `kUnavailable` ERROR frame and closed —
  /// the same fast-fail overload stance as `admission_queue_limit`.
  /// 0 = unbounded.
  size_t max_connections = 64;

  /// Upper bound on a single CYRQ1 frame's payload, enforced while
  /// *decoding* the length prefix — an absurd declared length is rejected
  /// before any allocation, so a hostile or corrupt peer cannot balloon
  /// server memory. Oversized frames are a protocol error (the connection
  /// is closed). 0 = unbounded (trusted peers only).
  size_t max_frame_bytes = 64u << 20;  // 64 MiB

  /// Worker threads the network server uses for slow request handlers
  /// (dataset upload/parse, submission, result marshalling). The socket
  /// event loop itself is always a single dedicated thread; these workers
  /// keep a large upload from stalling every other connection. Fast
  /// requests (status, cancel, subscribe) run inline on the loop.
  size_t io_threads = 2;

  /// Options with only the scheduler knobs set — the common shape of the
  /// examples, CLI, bench drivers, and test harnesses.
  static PlatformOptions WithWorkers(size_t workers, uint64_t uuid_seed = 0) {
    PlatformOptions options;
    options.num_workers = workers;
    options.uuid_seed = uuid_seed;
    return options;
  }

  /// Parses "key=value" pairs separated by commas or semicolons — the same
  /// grammar as task parameters (`ParamMap::Parse`): whitespace-tolerant,
  /// case-insensitive keys, duplicate keys rejected. Unknown keys are
  /// rejected (catches deployment-config typos). Byte-sized knobs accept
  /// binary suffixes: `64m` / `64mb` / `64mib` = 64 MiB (likewise
  /// `k`/`kib`, `g`/`gib`). An empty string yields the defaults. Retired
  /// keys still parse at their old no-op values so old configs keep
  /// working; any other value is `kInvalidArgument` naming the key (see
  /// the options table in src/platform/README.md).
  static Result<PlatformOptions> FromString(std::string_view text);

  /// Canonical "key=value, key=value" rendering (sorted keys, plain byte
  /// counts). `FromString(options.ToString()) == options` for any options.
  std::string ToString() const;

  /// `num_workers` with 0 resolved to the hardware thread count (min 1).
  size_t ResolvedNumWorkers() const;

  friend bool operator==(const PlatformOptions& a, const PlatformOptions& b) {
    return a.graph_store_bytes == b.graph_store_bytes &&
           a.result_cache_bytes == b.result_cache_bytes &&
           a.max_retained_results == b.max_retained_results &&
           a.num_workers == b.num_workers &&
           a.default_threads == b.default_threads &&
           a.uuid_seed == b.uuid_seed &&
           a.max_tasks_per_submission == b.max_tasks_per_submission &&
           a.spill_dir == b.spill_dir &&
           a.graph_spill_bytes == b.graph_spill_bytes &&
           a.result_spill_bytes == b.result_spill_bytes &&
           a.spill_write_behind_bytes == b.spill_write_behind_bytes &&
           a.spill_retry_limit == b.spill_retry_limit &&
           a.spill_retry_backoff_ms == b.spill_retry_backoff_ms &&
           a.spill_breaker_probe_ms == b.spill_breaker_probe_ms &&
           a.admission_queue_limit == b.admission_queue_limit &&
           a.default_deadline_ms == b.default_deadline_ms &&
           a.listen_port == b.listen_port &&
           a.max_connections == b.max_connections &&
           a.max_frame_bytes == b.max_frame_bytes &&
           a.io_threads == b.io_threads;
  }
};

}  // namespace cyclerank

#endif  // CYCLERANK_PLATFORM_PLATFORM_OPTIONS_H_
