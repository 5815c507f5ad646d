// The fault matrix of PR 8: every disk failure the storage stack promises
// to survive, exercised end to end through an injected `Env` — plus the
// scheduler's overload control (deadlines, bounded admission), which is
// the same robustness story one layer up. The contract under test, from
// ISSUE.md: never crash, never serve a wrong or partial result, answer a
// deterministic Status, and recover when the fault clears.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "graph/graph_builder.h"
#include "platform/datastore.h"
#include "platform/gateway.h"
#include "platform/params.h"
#include "platform/registry.h"
#include "platform/spill_tier.h"
#include "platform/task.h"
#include "storage_test_util.h"

namespace cyclerank {
namespace {

using Kind = EnvFault::Kind;

/// Spill-tier options wired to `env` with test-friendly failure knobs: no
/// retry sleep, a probe on every post-trip operation. A write counts as
/// acknowledged when `PutAndFlush` (Put, then the Flush barrier) is OK.
SpillTierOptions FaultyTierOptions(Env* env, int retry_limit) {
  SpillTierOptions options;
  options.env = env;
  options.retry_limit = retry_limit;
  options.retry_backoff_ms = 0;
  options.breaker_probe_ms = 0;
  return options;
}

// ------------------------------------------------- retries (transient) --

TEST(FaultInjectionTest, TransientWriteFaultIsRetriedInvisibly) {
  FaultInjectingEnv env(Env::Default());
  SpillTier tier(FreshSpillDir("fi_transient_write"),
                 FaultyTierOptions(&env, /*retry_limit=*/3), "dataset");
  // The first data-file write fails once with EIO; the retry must absorb
  // it without the caller ever noticing.
  env.AddFault({Kind::kTransient, EnvOp::kWrite, ".spill", 1});

  ASSERT_TRUE(PutAndFlush(tier, "k", "payload-bytes", 7).ok());
  EXPECT_EQ(tier.stats().retries, 1u);
  EXPECT_EQ(tier.stats().retry_exhausted, 0u);
  EXPECT_EQ(tier.stats().breaker_trips, 0u);
  EXPECT_FALSE(tier.stats().breaker_open);

  const auto loaded = tier.Get("k");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->payload, "payload-bytes");
  EXPECT_EQ(loaded->meta, 7u);
}

TEST(FaultInjectionTest, TransientReadFaultIsRetriedInvisibly) {
  FaultInjectingEnv env(Env::Default());
  SpillTier tier(FreshSpillDir("fi_transient_read"),
                 FaultyTierOptions(&env, 3), "dataset");
  ASSERT_TRUE(PutAndFlush(tier, "k", "payload-bytes").ok());
  env.AddFault({Kind::kTransient, EnvOp::kRead, ".spill", 1});

  const auto loaded = tier.Get("k");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->payload, "payload-bytes");
  EXPECT_GE(tier.stats().retries, 1u);
  EXPECT_EQ(tier.stats().skipped_corrupt_files, 0u);  // flaky ≠ corrupt
}

TEST(FaultInjectionTest, FailedReadKeepsTheEntryIntact) {
  FaultInjectingEnv env(Env::Default());
  // No retries: the first injected read error surfaces to the caller.
  SpillTier tier(FreshSpillDir("fi_read_keeps"), FaultyTierOptions(&env, 0),
                 "dataset");
  ASSERT_TRUE(PutAndFlush(tier, "k", "precious").ok());
  env.AddFault({Kind::kTransient, EnvOp::kRead, ".spill", 1});

  EXPECT_FALSE(tier.Get("k").ok());  // error surfaced...
  EXPECT_TRUE(tier.Contains("k"));   // ...but the entry was not destroyed
  EXPECT_EQ(tier.stats().skipped_corrupt_files, 0u);

  // The disk "heals" (fault was one-shot); with breaker_probe_ms=0 the
  // next read is admitted as a probe and the data is still all there.
  const auto loaded = tier.Get("k");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->payload, "precious");
}

// ---------------------------------------- circuit breaker (persistent) --

TEST(FaultInjectionTest, PersistentFailureTripsBreakerAndFastFails) {
  FaultInjectingEnv env(Env::Default());
  SpillTierOptions options = FaultyTierOptions(&env, /*retry_limit=*/2);
  options.breaker_probe_ms = 60'000;  // no probe within this test
  SpillTier tier(FreshSpillDir("fi_breaker_trip"), options, "dataset");
  ASSERT_TRUE(PutAndFlush(tier, "a", "alpha").ok());

  env.AddFault({Kind::kPersistent, EnvOp::kWrite, ".spill", 1});
  const Status failed = PutAndFlush(tier, "b", "bravo");
  EXPECT_EQ(failed.code(), StatusCode::kIOError);  // the injected error
  {
    const SpillTierStats stats = tier.stats();
    EXPECT_EQ(stats.retries, 2u);          // both retries attempted
    EXPECT_EQ(stats.retry_exhausted, 1u);  // ...and exhausted
    EXPECT_EQ(stats.breaker_trips, 1u);
    EXPECT_TRUE(stats.breaker_open);
  }

  // While open, nothing touches the device: puts and disk reads fast-fail
  // kUnavailable with zero Env calls.
  const uint64_t ops_before = env.stats().ops;
  EXPECT_EQ(tier.Put("c", "charlie").code(), StatusCode::kUnavailable);
  EXPECT_EQ(tier.Get("a").status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(env.stats().ops, ops_before);
  EXPECT_GE(tier.stats().breaker_rejects, 2u);

  // Degraded mode is documented drop-on-evict, never a wrong answer: the
  // keys whose bytes were lost answer "stored and then dropped".
  EXPECT_TRUE(tier.WasPruned("b"));
  EXPECT_TRUE(tier.WasPruned("c"));
  EXPECT_EQ(tier.Get("b").status().code(), StatusCode::kExpired);
  EXPECT_EQ(tier.Get("c").status().code(), StatusCode::kExpired);
}

TEST(FaultInjectionTest, BreakerProbeRecoversOnceTheFaultClears) {
  FaultInjectingEnv env(Env::Default());
  SpillTier tier(FreshSpillDir("fi_breaker_heal"),
                 FaultyTierOptions(&env, /*retry_limit=*/0), "dataset");
  ASSERT_TRUE(PutAndFlush(tier, "a", "alpha").ok());

  env.AddFault({Kind::kPersistent, EnvOp::kWrite, ".spill", 1});
  EXPECT_FALSE(PutAndFlush(tier, "b", "bravo").ok());
  EXPECT_TRUE(tier.stats().breaker_open);

  env.ClearFaults();  // the disk heals
  // breaker_probe_ms=0: the very next operation goes through as a probe,
  // succeeds, and closes the breaker — full service resumes.
  const auto loaded = tier.Get("a");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->payload, "alpha");
  {
    const SpillTierStats stats = tier.stats();
    EXPECT_FALSE(stats.breaker_open);
    EXPECT_GE(stats.breaker_probes, 1u);
    EXPECT_EQ(stats.breaker_recoveries, 1u);
  }
  ASSERT_TRUE(PutAndFlush(tier, "c", "charlie").ok());
  EXPECT_EQ(tier.Get("c")->payload, "charlie");
}

// ------------------------------------------- write-behind flush errors --

TEST(FaultInjectionTest, FlushThreadFailureSurfacesFromFlush) {
  FaultInjectingEnv env(Env::Default());
  SpillTier tier(FreshSpillDir("fi_flush_error"),
                 FaultyTierOptions(&env, /*retry_limit=*/0), "dataset");

  env.AddFault({Kind::kPersistent, EnvOp::kWrite, ".spill", 1});
  ASSERT_TRUE(tier.Put("k", "doomed-bytes").ok());  // buffered fine

  // The loss happened on the flush thread; Flush() is where it surfaces.
  const Status flushed = tier.Flush();
  EXPECT_FALSE(flushed.ok());
  EXPECT_NE(flushed.message().find("never reached disk"), std::string::npos)
      << flushed.message();
  EXPECT_GE(tier.stats().flush_failures, 1u);

  // The key answers "stored and dropped" — a clean, deterministic miss.
  EXPECT_TRUE(tier.WasPruned("k"));
  EXPECT_EQ(tier.Get("k").status().code(), StatusCode::kExpired);

  // The error is reported once, then cleared.
  EXPECT_TRUE(tier.Flush().ok());

  // After healing, write-behind service resumes end to end.
  env.ClearFaults();
  ASSERT_TRUE(tier.Put("k2", "survives").ok());
  ASSERT_TRUE(tier.Flush().ok());
  EXPECT_EQ(tier.Get("k2")->payload, "survives");
}

TEST(FaultInjectionTest, DatastoreFlushReportsDemotionLosses) {
  FaultInjectingEnv env(Env::Default());
  PlatformOptions options;
  options.spill_dir = FreshSpillDir("fi_datastore_flush");
  options.graph_store_bytes = ChainGraph(100)->MemoryBytes();
  options.spill_retry_limit = 0;
  options.spill_retry_backoff_ms = 0;
  options.spill_breaker_probe_ms = 0;
  Datastore store(nullptr, options, &env);

  ASSERT_TRUE(store.PutDataset("a", ChainGraph(100)).ok());
  // Break the dataset tier's data-file writes, then force a demotion.
  env.AddFault({Kind::kPersistent, EnvOp::kWrite, "datasets", 1});
  ASSERT_TRUE(store.PutDataset("b", ChainGraph(100)).ok());  // "a" → disk

  // The write-behind demotion of "a" could not reach disk: Flush() says
  // so with a real Status instead of pretending durability.
  const Status flushed = store.Flush();
  EXPECT_FALSE(flushed.ok());
  EXPECT_GE(store.SpillStats().datasets.flush_failures, 1u);

  // Degradation, not corruption: "a" is a clean miss, "b" still serves.
  EXPECT_FALSE(store.GetDataset("a").ok());
  EXPECT_TRUE(store.GetDataset("b").ok());

  // The disk heals; later demotions flow to disk again and reload.
  env.ClearFaults();
  ASSERT_TRUE(store.PutDataset("c", ChainGraph(100)).ok());  // "b" → disk
  EXPECT_TRUE(store.Flush().ok());
  EXPECT_TRUE(store.GetDataset("b").ok());  // reloaded from disk
}

// ------------------------------------------------ crash-recovery tests --

TEST(FaultInjectionTest, EnospcMidRunRestartRecoversSurvivors) {
  const std::string dir = FreshSpillDir("fi_enospc_restart");
  {
    FaultInjectingEnv env(Env::Default());
    SpillTierOptions options = FaultyTierOptions(&env, 0);
    options.breaker_probe_ms = 60'000;
    SpillTier tier(dir, options, "dataset");
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(PutAndFlush(tier, "k" + std::to_string(i),
                              "payload-" + std::to_string(i))
                      .ok());
    }
    env.AddFault({Kind::kPersistent, EnvOp::kWrite, ".spill", 1});  // ENOSPC
    EXPECT_FALSE(PutAndFlush(tier, "k5", "payload-5").ok());
  }  // process "dies" mid-incident; only the directory survives

  // Restart against a healthy disk: every pre-incident entry is back,
  // bit-identical; the write the disk rejected is a clean miss.
  SpillTier revived(dir, SpillTierOptions{}, "dataset");
  EXPECT_EQ(revived.stats().recovered_files, 5u);
  EXPECT_EQ(revived.stats().skipped_corrupt_files, 0u);
  for (int i = 0; i < 5; ++i) {
    const auto loaded = revived.Get("k" + std::to_string(i));
    ASSERT_TRUE(loaded.ok()) << i;
    EXPECT_EQ(loaded->payload, "payload-" + std::to_string(i));
  }
  EXPECT_EQ(revived.Get("k5").status().code(), StatusCode::kNotFound);
}

TEST(FaultInjectionTest, CrashAtEveryOperationRecoversCleanly) {
  // Sweep the crash point across every Env call of a fixed Put sequence:
  // wherever the "power cut" lands — mid tmp write (torn file), at the
  // rename, even inside the constructor's recovery scan
  // — the restart must come up, serve every acknowledged Put
  // bit-identically, and answer a clean miss for the rest.
  bool swept_past_the_end = false;
  for (uint64_t nth = 1; nth <= 24 && !swept_past_the_end; ++nth) {
    SCOPED_TRACE("crash at env call #" + std::to_string(nth));
    const std::string dir =
        FreshSpillDir("fi_crash_sweep_" + std::to_string(nth));
    std::map<std::string, std::string> acknowledged;
    {
      FaultInjectingEnv env(Env::Default());
      env.AddFault({Kind::kCrashPoint, EnvOp::kAny, "", nth});
      SpillTierOptions options = FaultyTierOptions(&env, 0);
      options.breaker_probe_ms = 60'000;
      SpillTier tier(dir, options, "dataset");
      for (int i = 0; i < 4; ++i) {
        const std::string key = "k" + std::to_string(i);
        const std::string payload =
            "payload-" + std::to_string(i) + "-" + std::to_string(nth);
        if (PutAndFlush(tier, key, payload).ok()) acknowledged[key] = payload;
      }
      swept_past_the_end = !env.crashed();
    }
    // Restart on the healthy disk.
    SpillTier revived(dir, SpillTierOptions{}, "dataset");
    for (int i = 0; i < 4; ++i) {
      const std::string key = "k" + std::to_string(i);
      const auto loaded = revived.Get(key);
      const auto it = acknowledged.find(key);
      if (it != acknowledged.end()) {
        // Acknowledged before the crash ⇒ durable and bit-identical.
        ASSERT_TRUE(loaded.ok()) << key << ": " << loaded.status().message();
        EXPECT_EQ(loaded->payload, it->second);
      } else {
        // Never acknowledged ⇒ a clean miss, never torn bytes.
        EXPECT_FALSE(loaded.ok()) << key;
      }
    }
  }
  EXPECT_TRUE(swept_past_the_end);  // the sweep covered every call site
}

TEST(FaultInjectionTest, LeftoverThatCannotBeRemovedIsNotFatal) {
  // An older version's manifest the disk refuses to delete: recovery logs
  // it and serves the tier as usual.
  const std::string dir = FreshSpillDir("fi_leftover_remove");
  {
    SpillTier writer(dir, SpillTierOptions{}, "dataset");
    ASSERT_TRUE(PutAndFlush(writer, "k", "payload").ok());
  }
  ASSERT_TRUE(Env::Default()->WriteFile(dir + "/manifest", "stale\n").ok());
  FaultInjectingEnv env(Env::Default());
  env.AddFault({Kind::kPersistent, EnvOp::kRemove, "manifest", 1});
  SpillTier tier(dir, FaultyTierOptions(&env, 0), "dataset");
  EXPECT_EQ(tier.stats().recovered_files, 1u);
  EXPECT_EQ(tier.Get("k").value().payload, "payload");
  EXPECT_TRUE(Env::Default()->FileSize(dir + "/manifest").ok());
}

TEST(FaultInjectionTest, TornTmpWriteNeverBecomesVisible) {
  const std::string dir = FreshSpillDir("fi_torn_tmp");
  {
    FaultInjectingEnv env(Env::Default());
    SpillTier tier(dir, FaultyTierOptions(&env, 0), "dataset");
    env.AddFault({Kind::kTornWrite, EnvOp::kWrite, ".spill", 1});
    EXPECT_FALSE(PutAndFlush(tier, "k", "half-of-me-reaches-disk").ok());
  }
  // The torn bytes went to the ".spill.tmp" name, which recovery ignores;
  // the entry was never renamed into visibility.
  SpillTier revived(dir, SpillTierOptions{}, "dataset");
  EXPECT_EQ(revived.stats().recovered_files, 0u);
  EXPECT_EQ(revived.stats().skipped_corrupt_files, 0u);
  EXPECT_FALSE(revived.Get("k").ok());
}

TEST(FaultInjectionTest, RenameFailureRetriesTheWholeWriteUnit) {
  FaultInjectingEnv env(Env::Default());
  const std::string dir = FreshSpillDir("fi_rename_retry");
  SpillTier tier(dir, FaultyTierOptions(&env, /*retry_limit=*/2), "dataset");
  env.AddFault({Kind::kTransient, EnvOp::kRename, ".spill", 1});

  // tmp write succeeds, the rename fails once: the retry re-runs the
  // whole tmp-write + rename unit and the Put still succeeds.
  ASSERT_TRUE(PutAndFlush(tier, "k", "renamed-on-retry").ok());
  EXPECT_GE(tier.stats().retries, 1u);
  EXPECT_EQ(tier.Get("k")->payload, "renamed-on-retry");
}

// --------------------------------------------- seeded random churn -----

/// Seed for the churn sweep: `tools/verify.sh --faults` sweeps it via
/// CYCLERANK_FAULT_SEED; unset, the suite runs one fixed seed.
uint64_t ChurnSeed() {
  const char* raw = std::getenv("CYCLERANK_FAULT_SEED");
  if (raw == nullptr) return 1;
  return static_cast<uint64_t>(std::strtoull(raw, nullptr, 10));
}

/// The seeded churn scenario: 200 writes over 17 keys while a quarter of
/// the mutating disk calls fail, each write followed by a read of its key.
/// `*truth` gets, per key, the last payload whose write was acknowledged —
/// the only bytes a later Get is allowed to serve — and every read is
/// checked against it on the way. Every mutating `Env` call runs on the
/// flush thread, one entry at a time between `Flush()` barriers, so the
/// fault sequence depends only on the seed.
void RunFaultChurn(SpillTier& tier, FaultInjectingEnv& env, uint64_t seed,
                   std::map<std::string, std::string>* truth) {
  env.SetRandomFaultRate(0.25);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "k" + std::to_string(i % 17);
    const std::string payload =
        "payload-" + std::to_string(i) + "-seed" + std::to_string(seed);
    if (PutAndFlush(tier, key, payload).ok()) (*truth)[key] = payload;
    const auto got = tier.Get(key);
    if (got.ok() && truth->count(key) != 0) {
      ASSERT_EQ(got->payload, truth->at(key)) << "iteration " << i;
    }
  }
}

TEST(FaultInjectionTest, RandomFaultChurnNeverServesWrongBytes) {
  const uint64_t seed = ChurnSeed();
  SCOPED_TRACE("CYCLERANK_FAULT_SEED=" + std::to_string(seed));
  FaultInjectingEnv env(Env::Default(), seed);
  const std::string dir = FreshSpillDir("fi_churn");
  SpillTier tier(dir, FaultyTierOptions(&env, /*retry_limit=*/1), "dataset");

  std::map<std::string, std::string> truth;
  ASSERT_NO_FATAL_FAILURE(RunFaultChurn(tier, env, seed, &truth));
  // Failed writes are whole-unit failures (tmp + rename), never torn
  // visible files — nothing should ever have read as corrupt.
  EXPECT_EQ(tier.stats().skipped_corrupt_files, 0u);

  env.ClearFaults();  // the disk heals; probes close the breaker
  for (const auto& [key, payload] : truth) {
    const auto got = tier.Get(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().message();
    EXPECT_EQ(got->payload, payload);
  }

  // And a restart serves exactly the acknowledged state, bit-identically.
  SpillTier revived(dir, SpillTierOptions{}, "dataset");
  EXPECT_EQ(revived.stats().recovered_files, truth.size());
  EXPECT_EQ(revived.stats().skipped_corrupt_files, 0u);
  for (const auto& [key, payload] : truth) {
    EXPECT_EQ(revived.Get(key)->payload, payload) << key;
  }
}

TEST(FaultInjectionTest, RandomFaultChurnReplaysIdenticallyPerSeed) {
  // A red CYCLERANK_FAULT_SEED must reproduce: the same seed injects the
  // same faults and acknowledges the same writes, run after run.
  const uint64_t seed = ChurnSeed();
  SCOPED_TRACE("CYCLERANK_FAULT_SEED=" + std::to_string(seed));
  std::map<std::string, std::string> acknowledged[2];
  uint64_t injected[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    FaultInjectingEnv env(Env::Default(), seed);
    SpillTier tier(FreshSpillDir("fi_churn_replay_" + std::to_string(run)),
                   FaultyTierOptions(&env, /*retry_limit=*/1), "dataset");
    ASSERT_NO_FATAL_FAILURE(RunFaultChurn(tier, env, seed, &acknowledged[run]));
    injected[run] = env.stats().injected;
  }
  EXPECT_GT(injected[0], 0u);  // the scenario really injected faults
  EXPECT_EQ(injected[0], injected[1]);
  EXPECT_EQ(acknowledged[0], acknowledged[1]);
}

// ------------------------------------------------- overload control ----

/// A latch the gated algorithm blocks on, so tests control exactly when
/// the single worker becomes free.
class Gate {
 public:
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool open_ = false;
};

/// Blocks on the gate, then returns a fixed ranking; counts invocations so
/// tests can prove a shed task never touched the kernel.
class GatedAlgorithm final : public RelevanceAlgorithm {
 public:
  GatedAlgorithm(std::shared_ptr<Gate> gate,
                 std::shared_ptr<std::atomic<int>> runs)
      : gate_(std::move(gate)), runs_(std::move(runs)) {}
  std::string_view name() const override { return "gated"; }
  bool requires_reference() const override { return false; }
  bool produces_scores() const override { return true; }
  Result<RankedList> Run(const Graph&,
                         const AlgorithmRequest&) const override {
    gate_->Wait();
    runs_->fetch_add(1, std::memory_order_relaxed);
    return RankedList{{0, 1.0}};
  }

 private:
  std::shared_ptr<Gate> gate_;
  std::shared_ptr<std::atomic<int>> runs_;
};

class OverloadControlTest : public ::testing::Test {
 protected:
  OverloadControlTest()
      : gate_(std::make_shared<Gate>()),
        runs_(std::make_shared<std::atomic<int>>(0)),
        store_(nullptr) {
    EXPECT_TRUE(
        registry_.Register(std::make_shared<GatedAlgorithm>(gate_, runs_))
            .ok());
    GraphBuilder builder;
    builder.AddEdge("a", "b");
    builder.AddEdge("b", "a");
    (void)store_.PutDataset("tiny", builder.BuildShared().value());
  }

  /// One gated task; `params` varies the fingerprint (alpha) and carries
  /// the deadline under test.
  QuerySet One(const std::string& params) {
    TaskBuilder builder;
    EXPECT_TRUE(builder.Add("tiny", "gated", params).ok());
    return builder.Build();
  }

  /// Polls until the comparison's only task is running (inside the gate).
  void WaitUntilRunning(ApiGateway& gateway, const std::string& id) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      const ComparisonStatus status = gateway.GetStatus(id).value();
      if (!status.states.empty() && status.states[0] == TaskState::kRunning) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << "task " << id << " never started running";
  }

  static PlatformOptions OneWorker() {
    return PlatformOptions::WithWorkers(1, /*uuid_seed=*/7);
  }

  /// Opens the gate when destroyed, so an early ASSERT exit can never
  /// deadlock the gateway's drain-on-destruction. Declare *after* the
  /// gateway: destructors run in reverse, opening the gate first.
  struct GateOpener {
    std::shared_ptr<Gate> gate;
    ~GateOpener() { gate->Open(); }
  };

  std::shared_ptr<Gate> gate_;
  std::shared_ptr<std::atomic<int>> runs_;
  AlgorithmRegistry registry_;
  Datastore store_;
};

TEST_F(OverloadControlTest, QueuedTaskPastItsDeadlineFastFails) {
  ApiGateway gateway(&store_, &registry_, OneWorker());
  GateOpener opener{gate_};

  const std::string blocker = gateway.SubmitQuerySet(One("")).value();
  WaitUntilRunning(gateway, blocker);
  // The worker is held; this task's 30 ms expire while it waits in queue.
  const std::string doomed =
      gateway.SubmitQuerySet(One("deadline_ms=30, alpha=0.5")).value();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  gate_->Open();

  ASSERT_TRUE(*gateway.WaitForCompletion(blocker, 30.0));
  ASSERT_TRUE(*gateway.WaitForCompletion(doomed, 30.0));
  const ComparisonStatus status = gateway.GetStatus(doomed).value();
  EXPECT_EQ(status.failed, 1u);
  const auto results = gateway.GetResults(doomed).value();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kDeadlineExceeded);
  // The shed task never touched the kernel: only the blocker ran.
  EXPECT_EQ(runs_->load(), 1);
}

TEST_F(OverloadControlTest, ExpiredFollowerRefusesEvenAReadyResult) {
  ApiGateway gateway(&store_, &registry_, OneWorker());
  GateOpener opener{gate_};

  const std::string blocker =
      gateway.SubmitQuerySet(One("alpha=0.9")).value();
  WaitUntilRunning(gateway, blocker);
  // Leader and follower share a fingerprint (deadline_ms is execution-only
  // and excluded); the follower's own deadline expires while coalesced.
  const std::string leader =
      gateway.SubmitQuerySet(One("alpha=0.5")).value();
  const std::string follower =
      gateway.SubmitQuerySet(One("alpha=0.5, deadline_ms=30")).value();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  gate_->Open();

  ASSERT_TRUE(*gateway.WaitForCompletion(leader, 30.0));
  ASSERT_TRUE(*gateway.WaitForCompletion(follower, 30.0));
  // The leader's result is real — but the follower's requester had given
  // up, so deadline semantics win over coalescing luck.
  EXPECT_TRUE(gateway.GetResults(leader).value()[0].status.ok());
  EXPECT_EQ(gateway.GetResults(follower).value()[0].status.code(),
            StatusCode::kDeadlineExceeded);
}

TEST_F(OverloadControlTest, DeadlineExceededLeaderPromotesItsFollower) {
  ApiGateway gateway(&store_, &registry_, OneWorker());
  GateOpener opener{gate_};

  const std::string blocker =
      gateway.SubmitQuerySet(One("alpha=0.9")).value();
  WaitUntilRunning(gateway, blocker);
  const std::string leader =
      gateway.SubmitQuerySet(One("alpha=0.5, deadline_ms=30")).value();
  const std::string follower =
      gateway.SubmitQuerySet(One("alpha=0.5")).value();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  gate_->Open();

  ASSERT_TRUE(*gateway.WaitForCompletion(leader, 30.0));
  ASSERT_TRUE(*gateway.WaitForCompletion(follower, 30.0));
  // The leader was shed — but its deadline, not the follower's: the
  // follower is promoted to a fresh leader and completes for real.
  EXPECT_EQ(gateway.GetResults(leader).value()[0].status.code(),
            StatusCode::kDeadlineExceeded);
  const auto promoted = gateway.GetResults(follower).value();
  ASSERT_EQ(promoted.size(), 1u);
  EXPECT_TRUE(promoted[0].status.ok()) << promoted[0].status.message();
  EXPECT_FALSE(promoted[0].ranking.empty());
}

TEST_F(OverloadControlTest, AdmissionLimitRejectsSynchronously) {
  PlatformOptions options = OneWorker();
  options.admission_queue_limit = 1;
  ApiGateway gateway(&store_, &registry_, options);
  GateOpener opener{gate_};

  const std::string blocker =
      gateway.SubmitQuerySet(One("alpha=0.9")).value();
  WaitUntilRunning(gateway, blocker);
  // One queue slot: the first waiter is admitted, the second answers
  // kUnavailable *now* — no parked task, no eventual timeout.
  const std::string queued =
      gateway.SubmitQuerySet(One("alpha=0.1")).value();
  const auto rejected = gateway.SubmitQuerySet(One("alpha=0.2"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);

  // Followers occupy no worker and no queue slot: an enqueue identical to
  // the queued leader coalesces instead of being rejected.
  const std::string coalesced =
      gateway.SubmitQuerySet(One("alpha=0.1")).value();
  gate_->Open();
  ASSERT_TRUE(*gateway.WaitForCompletion(queued, 30.0));
  ASSERT_TRUE(*gateway.WaitForCompletion(coalesced, 30.0));
  EXPECT_TRUE(gateway.GetResults(queued).value()[0].status.ok());
  EXPECT_TRUE(gateway.GetResults(coalesced).value()[0].status.ok());
}

TEST_F(OverloadControlTest, DefaultDeadlineAppliesAndZeroOptsOut) {
  PlatformOptions options = OneWorker();
  options.default_deadline_ms = 30;
  ApiGateway gateway(&store_, &registry_, options);
  GateOpener opener{gate_};

  const std::string blocker =
      gateway.SubmitQuerySet(One("alpha=0.9, deadline_ms=0")).value();
  WaitUntilRunning(gateway, blocker);
  const std::string defaulted =
      gateway.SubmitQuerySet(One("alpha=0.1")).value();  // inherits 30 ms
  const std::string opted_out =
      gateway.SubmitQuerySet(One("alpha=0.2, deadline_ms=0")).value();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  gate_->Open();

  ASSERT_TRUE(*gateway.WaitForCompletion(defaulted, 30.0));
  ASSERT_TRUE(*gateway.WaitForCompletion(opted_out, 30.0));
  EXPECT_EQ(gateway.GetResults(defaulted).value()[0].status.code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(gateway.GetResults(opted_out).value()[0].status.ok());
}

TEST_F(OverloadControlTest, MalformedDeadlineRejectedSynchronously) {
  ApiGateway gateway(&store_, &registry_, OneWorker());
  GateOpener opener{gate_};

  EXPECT_FALSE(gateway.SubmitQuerySet(One("deadline_ms=soon")).ok());
  EXPECT_EQ(gateway.SubmitQuerySet(One("deadline_ms=-5")).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(OverloadFingerprintTest, DeadlineIsExecutionOnlyInFingerprints) {
  ParamMap with;
  with.Set("alpha", "0.5");
  with.Set("deadline_ms", "250");
  ParamMap without;
  without.Set("alpha", "0.5");
  // A deadline decides *whether* the kernel runs, never what it computes:
  // it must not split (or collide) cache entries.
  EXPECT_EQ(TaskFingerprint("d", "pagerank", with),
            TaskFingerprint("d", "pagerank", without));
}

}  // namespace
}  // namespace cyclerank
