#ifndef CYCLERANK_COMMON_LOCK_RANK_H_
#define CYCLERANK_COMMON_LOCK_RANK_H_

/// Runtime lock-rank (lock-ordering) deadlock checker.
///
/// Every `Mutex` (common/mutex.h) may register a *rank* and a name at
/// construction. In checked builds a thread-local stack records the ranks a
/// thread currently holds, and acquiring a mutex whose rank is not
/// *strictly greater* than every held rank aborts the process, printing
/// both lock names — the canonical cross-layer deadlock (two threads
/// nesting two locks in opposite orders) is caught on the *first* wrong
/// nesting, on any single thread, without needing the deadly interleaving.
/// This covers what Clang's static `-Wthread-safety` analysis cannot see:
/// lock order across call chains, condition-variable waits, and the
/// write-behind backpressure paths.
///
/// Checked builds: Debug and sanitized configurations (the CMake option
/// `CYCLERANK_LOCK_RANK_CHECKS`, AUTO by default). Release builds compile
/// the bookkeeping out entirely — `Mutex` is exactly a `std::mutex`, zero
/// overhead.
///
/// ## The platform's lock hierarchy (low rank = acquired first / outermost)
///
/// The ranks below encode every real nesting in the platform; see
/// src/platform/README.md ("Lock hierarchy") for the prose version.
/// Outer layers (network server → scheduler) have low ranks; the stores
/// come next (the gateway and the datastore facade hold no lock of their
/// own: a comparison's record lives in the status service, and each store
/// orders its own lifecycle steps under its own mutex); the spill tier's
/// two locks (write-behind buffer before disk index — the documented fixed
/// order) sit below those because the graph and result stores call into
/// their spill tier while holding their own lock; the thread pool,
/// workspace pool, and logging are leaf-most — they are
/// acquired from under almost everything (the scheduler posts to the pool
/// while holding `mu_`; warnings are logged under store locks).
///
/// Unranked mutexes (`kUnranked`) do not participate — they may nest
/// anywhere. Rank a mutex as soon as it acquires a second lock underneath.

#include <cstdint>

namespace cyclerank {
namespace lock_rank {

/// Exempt from order checking (the default for a plain `Mutex()`).
inline constexpr int kUnranked = 0;

// ---- Platform hierarchy (see the header comment) -------------------------

/// `NetServer` lifecycle state (src/net/server.cc) — Start/Shutdown
/// bookkeeping. Ranked outermost: the server calls the whole gateway
/// surface on behalf of remote clients. (The server's cross-thread
/// mailbox mutex is deliberately *unranked*: terminal-state listeners may
/// fire from under `Scheduler::mu_`, so the mailbox must be free to nest
/// under any rank; its critical sections only append to a vector and write
/// one pipe byte.)
inline constexpr int kNetServerMu = 50;

/// `Scheduler::mu_` — dispatch/single-flight state. Holds while probing
/// the result cache, posting to the pool, and (on the degenerate
/// pool-refused shutdown path) while running the whole executor stack.
inline constexpr int kSchedulerMu = 200;

/// The individually-locked stores. They never nest with each other, so
/// their relative order is free; the graph store and the result store
/// (results and their logs) each call into their spill tier and the
/// logger under their lock. `StatusService::mu_` guards every
/// comparison's record and the id generator; it wraps nothing.
inline constexpr int kGraphStoreMu = 400;
inline constexpr int kResultStoreMu = 410;
/// `ResultCache::mu_` — memory only: taken under the scheduler's mutex,
/// it nests outside no other lock.
inline constexpr int kResultCacheMu = 420;
inline constexpr int kCatalogMu = 440;
inline constexpr int kRegistryMu = 450;
inline constexpr int kStatusServiceMu = 460;
/// `Executor::kernel_seconds_mu_` — the per-algorithm kernel-seconds
/// estimates. A leaf: it wraps nothing, and the executor may take it under
/// `Scheduler::mu_` on the pool-refused shutdown path.
inline constexpr int kKernelSecondsMu = 470;

/// `SpillTier::buffer_mu_` then `SpillTier::mu_` — the tier's documented
/// fixed internal order (write-behind buffer before disk index). Below the
/// stores: eviction/demotion calls `SpillTier::Put` under the owning
/// store's lock. Tiers never nest with each other (the facade flushes them
/// sequentially), so all tiers share these two ranks.
inline constexpr int kSpillBufferMu = 500;
inline constexpr int kSpillIndexMu = 510;

/// `SpillTier::breaker_mu_` — circuit-breaker state and retry counters.
/// Taken briefly around every guarded disk operation, which may itself run
/// under `mu_` (sync Put, Get) — so it must rank below the index lock; the
/// Env call happens with it released.
inline constexpr int kSpillBreakerMu = 520;

/// Leaf-most concurrency plumbing: the shared compute pool (posted to
/// under the scheduler lock), per-kernel workspace pools and `ParallelFor`
/// completion latches (acquired from inside pool tasks), and finally the
/// logging sink mutex — log lines are emitted under store and spill locks,
/// so logging must nest under everything.
inline constexpr int kThreadPoolMu = 600;
inline constexpr int kWorkspacePoolMu = 610;
inline constexpr int kParallelForMu = 620;

/// `FaultInjectingEnv::mu_` — fault-schedule bookkeeping. Every Env call
/// happens from under spill-tier (and sometimes store) locks, so the Env's
/// own lock must nest below them; it wraps nothing but the logger.
inline constexpr int kEnvMu = 650;

inline constexpr int kLoggingMu = 700;

/// True when this build carries the runtime checks (Debug / sanitizers).
/// Tests use it to skip the death tests in Release.
bool ChecksEnabled();

#if defined(CYCLERANK_LOCK_RANK_CHECKS)

/// Records `rank` as held by this thread; aborts with both lock names (and
/// instance addresses, to tell two same-named mutexes apart) when `rank`
/// is not strictly greater than every rank already held. Called by
/// `Mutex::Lock` before blocking on the underlying mutex — the *intent* to
/// acquire is what deadlocks, so the check must not wait for success.
/// `kUnranked` is a no-op. `addr` identifies the mutex instance in the
/// diagnostic only; it does not participate in the ordering check.
void NoteAcquire(int rank, const char* name, const void* addr);

/// Removes `rank` from this thread's held set. `kUnranked` is a no-op.
void NoteRelease(int rank, const char* name);

#endif  // CYCLERANK_LOCK_RANK_CHECKS

/// Aborts (in checked builds) when this thread still holds a ranked lock,
/// printing the held names. Placed at ownership boundaries where a held
/// lock is a structural bug — e.g. a thread-pool task returning to the
/// worker loop. A no-op in unchecked builds.
void AssertNoneHeld(const char* where);

}  // namespace lock_rank
}  // namespace cyclerank

#endif  // CYCLERANK_COMMON_LOCK_RANK_H_
