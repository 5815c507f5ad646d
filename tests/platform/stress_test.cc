// Failure injection and concurrency stress for the platform layer: the
// paper's architecture claims isolation between tasks ("each component is
// containerized to provide isolation", §III) — in this in-process library
// that translates to: one failing task never corrupts its comparison, and
// every component tolerates concurrent clients.

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "platform/gateway.h"
#include "storage_test_util.h"

namespace cyclerank {
namespace {

/// Algorithm that fails on demand: `params: fail=1` -> Internal error;
/// `params: crashy_seed` odd -> OutOfRange. Used to inject failures at the
/// executor level.
class FlakyAlgorithm final : public RelevanceAlgorithm {
 public:
  std::string_view name() const override { return "flaky"; }
  bool requires_reference() const override { return false; }
  bool produces_scores() const override { return true; }
  Result<RankedList> Run(const Graph& g,
                         const AlgorithmRequest& request) const override {
    ++invocations_;
    if (request.seed % 2 == 1) {
      return Status::Internal("flaky: injected failure (odd seed)");
    }
    std::vector<double> scores(g.num_nodes(), 1.0);
    RankingOptions options;
    options.drop_zeros = false;
    return ScoresToRankedList(scores, options);
  }
  static std::atomic<int> invocations_;
};

std::atomic<int> FlakyAlgorithm::invocations_{0};

/// Deterministic algorithm that counts kernel executions — the probe for
/// the "repeated queries execute zero kernel work" guarantees of the
/// result-cache + single-flight layer.
class CountingAlgorithm final : public RelevanceAlgorithm {
 public:
  std::string_view name() const override { return "counting"; }
  bool requires_reference() const override { return false; }
  bool produces_scores() const override { return true; }
  Result<RankedList> Run(const Graph& g,
                         const AlgorithmRequest& request) const override {
    runs_.fetch_add(1);
    std::vector<double> scores(g.num_nodes());
    for (size_t i = 0; i < scores.size(); ++i) {
      scores[i] = request.alpha / (1.0 + static_cast<double>(i));
    }
    RankingOptions options;
    options.drop_zeros = false;
    return ScoresToRankedList(scores, options);
  }
  static std::atomic<int> runs_;
};

std::atomic<int> CountingAlgorithm::runs_{0};

GraphPtr TinyGraph() {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 0);
  return builder.BuildShared().value();
}

TEST(FailureInjectionTest, FailedTasksDoNotPoisonTheComparison) {
  AlgorithmRegistry registry;
  ASSERT_TRUE(registry.Register(std::make_shared<FlakyAlgorithm>()).ok());
  ASSERT_TRUE(registry.Register(MakeAlgorithm(AlgorithmKind::kPageRank)).ok());
  Datastore store(nullptr);
  ASSERT_TRUE(store.PutDataset("tiny", TinyGraph()).ok());
  ApiGateway gateway(&store, &registry,
      PlatformOptions::WithWorkers(2, 3));

  TaskBuilder builder;
  for (int i = 0; i < 10; ++i) {
    // Odd seeds fail, even seeds succeed.
    ASSERT_TRUE(
        builder.Add("tiny", "flaky", "seed=" + std::to_string(i)).ok());
  }
  const std::string id = gateway.SubmitQuerySet(builder.Build()).value();
  ASSERT_TRUE(*gateway.WaitForCompletion(id, 60.0));
  const ComparisonStatus status = gateway.GetStatus(id).value();
  EXPECT_EQ(status.completed, 5u);
  EXPECT_EQ(status.failed, 5u);
  EXPECT_TRUE(status.done);
  // Every task has a stored result carrying its own status.
  const auto results = gateway.GetResults(id).value();
  ASSERT_EQ(results.size(), 10u);
  size_t failed = 0;
  for (const TaskResult& result : results) {
    if (!result.status.ok()) {
      ++failed;
      EXPECT_EQ(result.status.code(), StatusCode::kInternal);
      EXPECT_TRUE(result.ranking.empty());
    }
  }
  EXPECT_EQ(failed, 5u);
}

TEST(FailureInjectionTest, FailureLogsAreRecorded) {
  AlgorithmRegistry registry;
  ASSERT_TRUE(registry.Register(std::make_shared<FlakyAlgorithm>()).ok());
  Datastore store(nullptr);
  ASSERT_TRUE(store.PutDataset("tiny", TinyGraph()).ok());
  ApiGateway gateway(&store, &registry,
      PlatformOptions::WithWorkers(1, 4));
  TaskBuilder builder;
  ASSERT_TRUE(builder.Add("tiny", "flaky", "seed=1").ok());
  const std::string id = gateway.SubmitQuerySet(builder.Build()).value();
  ASSERT_TRUE(*gateway.WaitForCompletion(id, 30.0));
  const auto log = store.GetLog(id + "/0");
  ASSERT_FALSE(log.empty());
  bool found = false;
  for (const std::string& line : log) {
    if (line.find("injected failure") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(StressTest, ConcurrentSubmittersGetIsolatedComparisons) {
  Datastore store(nullptr);
  ASSERT_TRUE(store.PutDataset("tiny", TinyGraph()).ok());
  ApiGateway gateway(&store, &AlgorithmRegistry::Default(),
      PlatformOptions::WithWorkers(4, 9));

  constexpr int kThreads = 8;
  constexpr int kPerThread = 5;
  std::vector<std::vector<std::string>> ids(kThreads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&gateway, &ids, t] {
      for (int i = 0; i < kPerThread; ++i) {
        TaskBuilder builder;
        (void)builder.Add("tiny", "pagerank", "alpha=0.85");
        (void)builder.Add("tiny", "cyclerank", "source=0, k=3");
        auto id = gateway.SubmitQuerySet(builder.Build());
        if (id.ok()) ids[t].push_back(std::move(id).value());
      }
    });
  }
  for (std::thread& thread : submitters) thread.join();

  std::set<std::string> unique;
  for (const auto& batch : ids) {
    ASSERT_EQ(batch.size(), static_cast<size_t>(kPerThread));
    for (const std::string& id : batch) {
      EXPECT_TRUE(unique.insert(id).second) << "duplicate id " << id;
      ASSERT_TRUE(*gateway.WaitForCompletion(id, 120.0));
      const ComparisonStatus status = gateway.GetStatus(id).value();
      EXPECT_EQ(status.completed, 2u) << id;
    }
  }
  EXPECT_EQ(unique.size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST(StressTest, ConcurrentDatastoreUploadsAndReads) {
  Datastore store(nullptr);
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  std::atomic<int> upload_failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&store, &upload_failures, t] {
      for (int i = 0; i < 20; ++i) {
        const std::string name =
            "g-" + std::to_string(t) + "-" + std::to_string(i);
        if (!store.PutDataset(name, TinyGraph()).ok()) ++upload_failures;
        // Interleave reads of everything uploaded so far.
        (void)store.GetDataset(name);
        store.AppendLog(name, "uploaded");
      }
    });
  }
  for (std::thread& thread : workers) thread.join();
  EXPECT_EQ(upload_failures.load(), 0);
  EXPECT_EQ(store.UploadedDatasets().size(), 160u);
}

TEST(StressTest, ConcurrentRegistryLookupsDuringRegistration) {
  AlgorithmRegistry registry;
  std::atomic<bool> stop{false};
  std::thread reader([&registry, &stop] {
    while (!stop.load()) {
      (void)registry.Find("pagerank");
      (void)registry.Names();
    }
  });
  for (AlgorithmKind kind : AllAlgorithmKinds()) {
    ASSERT_TRUE(registry.Register(MakeAlgorithm(kind)).ok());
  }
  stop = true;
  reader.join();
  EXPECT_TRUE(registry.Find("pagerank").ok());
}

TEST(StressTest, SingleFlightCoalescesIdenticalConcurrentSubmissions) {
  AlgorithmRegistry registry;
  ASSERT_TRUE(registry.Register(std::make_shared<CountingAlgorithm>()).ok());
  Datastore store(nullptr);
  ASSERT_TRUE(store.PutDataset("tiny", TinyGraph()).ok());
  ApiGateway gateway(&store, &registry,
      PlatformOptions::WithWorkers(4, 11));
  CountingAlgorithm::runs_ = 0;

  // Hammer the gateway with the same task from many threads at once: every
  // submission must complete with the same ranking, and the kernel must run
  // exactly once — later submissions coalesce with the in-flight leader or
  // hit the cache it populated.
  constexpr int kThreads = 8;
  std::vector<std::string> ids(kThreads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&gateway, &ids, t] {
      TaskBuilder builder;
      (void)builder.Add("tiny", "counting", "alpha=0.5");
      auto id = gateway.SubmitQuerySet(builder.Build());
      if (id.ok()) ids[t] = std::move(id).value();
    });
  }
  for (std::thread& thread : submitters) thread.join();

  RankedList reference;
  for (const std::string& id : ids) {
    ASSERT_FALSE(id.empty());
    ASSERT_TRUE(*gateway.WaitForCompletion(id, 60.0));
    const ComparisonStatus status = gateway.GetStatus(id).value();
    EXPECT_EQ(status.completed, 1u) << id;
    const auto results = gateway.GetResults(id).value();
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].status.ok());
    if (reference.empty()) reference = results[0].ranking;
    EXPECT_EQ(results[0].ranking, reference) << id;
  }
  EXPECT_EQ(CountingAlgorithm::runs_.load(), 1);
}

TEST(StressTest, ResubmissionExecutesZeroKernelWork) {
  AlgorithmRegistry registry;
  ASSERT_TRUE(registry.Register(std::make_shared<CountingAlgorithm>()).ok());
  Datastore store(nullptr);
  ASSERT_TRUE(store.PutDataset("tiny", TinyGraph()).ok());
  ApiGateway gateway(&store, &registry,
      PlatformOptions::WithWorkers(2, 12));
  CountingAlgorithm::runs_ = 0;

  TaskBuilder builder;
  ASSERT_TRUE(builder.Add("tiny", "counting", "alpha=0.1").ok());
  ASSERT_TRUE(builder.Add("tiny", "counting", "alpha=0.2").ok());
  ASSERT_TRUE(builder.Add("tiny", "counting", "alpha=0.3").ok());

  const std::string first = gateway.SubmitQuerySet(builder.Build()).value();
  ASSERT_TRUE(*gateway.WaitForCompletion(first, 60.0));
  EXPECT_EQ(CountingAlgorithm::runs_.load(), 3);
  const auto first_results = gateway.GetResults(first).value();

  const std::string second = gateway.SubmitQuerySet(builder.Build()).value();
  ASSERT_TRUE(*gateway.WaitForCompletion(second, 60.0));
  // The entire resubmission was served from the cache: zero kernel work,
  // bit-identical rankings.
  EXPECT_EQ(CountingAlgorithm::runs_.load(), 3);
  const auto second_results = gateway.GetResults(second).value();
  ASSERT_EQ(second_results.size(), first_results.size());
  for (size_t i = 0; i < second_results.size(); ++i) {
    EXPECT_TRUE(second_results[i].status.ok());
    EXPECT_EQ(second_results[i].ranking, first_results[i].ranking);
  }
}

TEST(StressTest, CancelledLeaderDoesNotDragCoalescedFollowersDown) {
  Datastore store(nullptr);
  ASSERT_TRUE(store.PutDataset("tiny", TinyGraph()).ok());
  // One worker: comparison A's first task occupies it while A's second task
  // and comparison C's identical task queue up and coalesce.
  ApiGateway gateway(&store, &AlgorithmRegistry::Default(),
      PlatformOptions::WithWorkers(1, 13));

  TaskBuilder a_builder;
  ASSERT_TRUE(
      a_builder.Add("tiny", "ppr_montecarlo", "source=0, walks=2000000").ok());
  ASSERT_TRUE(a_builder.Add("tiny", "pagerank", "alpha=0.7").ok());
  const std::string a = gateway.SubmitQuerySet(a_builder.Build()).value();

  TaskBuilder c_builder;
  ASSERT_TRUE(c_builder.Add("tiny", "pagerank", "alpha=0.7").ok());
  const std::string c = gateway.SubmitQuerySet(c_builder.Build()).value();

  // Cancel A. If A's pagerank task was the single-flight leader and gets
  // cancelled, C's coalesced task must be promoted and still complete —
  // cancellation belongs to A's requester, not to the shared computation.
  ASSERT_TRUE(gateway.Cancel(a).ok());
  ASSERT_TRUE(*gateway.WaitForCompletion(a, 60.0));
  ASSERT_TRUE(*gateway.WaitForCompletion(c, 60.0));
  const ComparisonStatus c_status = gateway.GetStatus(c).value();
  EXPECT_EQ(c_status.completed, 1u);
  const auto c_results = gateway.GetResults(c).value();
  ASSERT_EQ(c_results.size(), 1u);
  EXPECT_TRUE(c_results[0].status.ok());
  EXPECT_FALSE(c_results[0].ranking.empty());
}

TEST(StressTest, PinnedSnapshotSurvivesEvictionBitIdentical) {
  const GraphPtr hot = ChainGraph(200);
  const std::string params = "source=0, walks=2000000";

  // Baseline: the same query against an unbounded store.
  RankedList baseline;
  {
    Datastore store(nullptr);
    ASSERT_TRUE(store.PutDataset("hot", hot).ok());
    ApiGateway gateway(&store, &AlgorithmRegistry::Default(),
                       PlatformOptions::WithWorkers(1, 23));
    TaskBuilder builder;
    ASSERT_TRUE(builder.Add("hot", "ppr_montecarlo", params).ok());
    const std::string id = gateway.SubmitQuerySet(builder.Build()).value();
    ASSERT_TRUE(*gateway.WaitForCompletion(id, 120.0));
    const auto results = gateway.GetResults(id).value();
    ASSERT_TRUE(results[0].status.ok());
    baseline = results[0].ranking;
  }

  // Bounded store: the budget holds exactly one graph of this size.
  PlatformOptions options;
  options.graph_store_bytes = hot->MemoryBytes();
  options.result_cache_bytes = 0;  // force the kernel to actually run
  options.num_workers = 1;
  options.uuid_seed = 24;
  Datastore store(nullptr, options);
  ASSERT_TRUE(store.PutDataset("hot", hot).ok());
  ApiGateway gateway(&store, &AlgorithmRegistry::Default(), options);
  TaskBuilder builder;
  ASSERT_TRUE(builder.Add("hot", "ppr_montecarlo", params).ok());
  const std::string id = gateway.SubmitQuerySet(builder.Build()).value();

  // Wait until the executor pinned the snapshot (kRunning implies the
  // dataset fetch already happened).
  const std::string task = id + "/0";
  while (true) {
    const TaskState state = gateway.status_service().GetState(task).value();
    if (state == TaskState::kRunning || IsTerminal(state)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Evict "hot" out from under the (likely still running) query.
  ASSERT_TRUE(store.PutDataset("filler", ChainGraph(200)).ok());
  ASSERT_EQ(store.GetDataset("hot").status().code(), StatusCode::kExpired);

  // The in-flight query completes against its pinned snapshot with results
  // bit-identical to the eviction-free run.
  ASSERT_TRUE(*gateway.WaitForCompletion(id, 120.0));
  const auto results = gateway.GetResults(id).value();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  EXPECT_EQ(results[0].ranking, baseline);
}

TEST(StressTest, DatasetEvictionChurnUnderConcurrentQueries) {
  // Uploads and queries race on a store whose budget holds ~3 graphs, so
  // eviction churns constantly while kernels run. Every query must end in
  // exactly one of: completed with the bit-identical expected ranking
  // (its snapshot was pinned), or failed with Expired/NotFound (it fetched
  // after the eviction). Anything else — a torn graph, a crash, a TSan
  // report — is a bug in the storage decomposition.
  const GraphPtr reference_graph = ChainGraph(50);
  const RankedList expected =
      MakeAlgorithm(AlgorithmKind::kPageRank)
          ->Run(*reference_graph, AlgorithmRequest{})
          .value();

  PlatformOptions options;
  options.graph_store_bytes = 3 * reference_graph->MemoryBytes();
  options.result_cache_bytes = 0;  // every admitted query runs the kernel
  options.num_workers = 4;
  options.uuid_seed = 19;
  Datastore store(nullptr, options);
  ApiGateway gateway(&store, &AlgorithmRegistry::Default(), options);

  constexpr int kThreads = 3;
  constexpr int kIters = 30;
  const auto dataset_name = [](int t, int i) {
    return "d-" + std::to_string(t) + "-" + std::to_string(i);
  };

  std::vector<std::thread> uploaders;
  for (int t = 0; t < kThreads; ++t) {
    uploaders.emplace_back([&store, &dataset_name, t] {
      for (int i = 0; i < kIters; ++i) {
        EXPECT_TRUE(store.PutDataset(dataset_name(t, i), ChainGraph(50)).ok());
        // Interleave reads that walk the store's shared state.
        (void)store.UploadedDatasets();
        (void)store.graph_store().stats();
      }
    });
  }
  std::vector<std::vector<std::string>> ids(kThreads);
  std::vector<std::thread> queriers;
  for (int t = 0; t < kThreads; ++t) {
    queriers.emplace_back([&gateway, &ids, &dataset_name, t] {
      for (int i = 0; i < kIters; ++i) {
        TaskBuilder builder;
        (void)builder.Add(dataset_name(t, i), "pagerank", "");
        auto id = gateway.SubmitQuerySet(builder.Build());
        if (id.ok()) ids[t].push_back(std::move(id).value());
      }
    });
  }
  for (std::thread& thread : uploaders) thread.join();
  for (std::thread& thread : queriers) thread.join();

  size_t completed = 0;
  size_t expired_or_missing = 0;
  for (const auto& batch : ids) {
    for (const std::string& id : batch) {
      ASSERT_TRUE(*gateway.WaitForCompletion(id, 120.0));
      const auto results = gateway.GetResults(id).value();
      ASSERT_EQ(results.size(), 1u);
      const TaskResult& result = results[0];
      if (result.status.ok()) {
        ++completed;
        EXPECT_EQ(result.ranking, expected) << result.task_id;
      } else {
        ++expired_or_missing;
        EXPECT_TRUE(result.status.code() == StatusCode::kExpired ||
                    result.status.code() == StatusCode::kNotFound)
            << result.status.ToString();
      }
    }
  }
  // The budget fits 3 graphs and each querier targets its own uploader's
  // most recent names, so a healthy run completes some queries; all of
  // them completing is equally fine (uploads may simply have outrun
  // evictions of queried names).
  EXPECT_GT(completed + expired_or_missing, 0u);
}

TEST(StressTest, SpillChurnUnderConcurrentQueriesIsBitIdentical) {
  // Same eviction churn as above, but with the disk spill tier attached:
  // eviction demotes instead of destroying, so *no* query may answer
  // Expired — every admitted query either completes with the bit-identical
  // expected ranking (pinned snapshot, or transparently reloaded from
  // disk) or reports NotFound (it raced ahead of its upload). Exercises
  // the evict→serialize→spill and miss→reload→promote paths under
  // concurrent kernels; run under TSan via tools/verify.sh.
  const GraphPtr reference_graph = ChainGraph(50);
  const RankedList expected =
      MakeAlgorithm(AlgorithmKind::kPageRank)
          ->Run(*reference_graph, AlgorithmRequest{})
          .value();

  PlatformOptions options;
  options.graph_store_bytes = 2 * reference_graph->MemoryBytes();
  options.result_cache_bytes = 0;  // every admitted query runs the kernel
  options.num_workers = 4;
  options.uuid_seed = 23;
  options.spill_dir = FreshSpillDir("stress_churn");
  Datastore store(nullptr, options);
  ApiGateway gateway(&store, &AlgorithmRegistry::Default(), options);

  constexpr int kThreads = 3;
  constexpr int kIters = 20;
  const auto dataset_name = [](int t, int i) {
    return "d-" + std::to_string(t) + "-" + std::to_string(i);
  };

  std::vector<std::thread> uploaders;
  for (int t = 0; t < kThreads; ++t) {
    uploaders.emplace_back([&store, &dataset_name, t] {
      for (int i = 0; i < kIters; ++i) {
        EXPECT_TRUE(store.PutDataset(dataset_name(t, i), ChainGraph(50)).ok());
        // Interleave reads that cross both tiers.
        (void)store.GetDataset(dataset_name(t, i / 2));
        (void)store.graph_store().stats();
      }
    });
  }
  std::vector<std::vector<std::string>> ids(kThreads);
  std::vector<std::thread> queriers;
  for (int t = 0; t < kThreads; ++t) {
    queriers.emplace_back([&gateway, &ids, &dataset_name, t] {
      for (int i = 0; i < kIters; ++i) {
        TaskBuilder builder;
        (void)builder.Add(dataset_name(t, i), "pagerank", "");
        auto id = gateway.SubmitQuerySet(builder.Build());
        if (id.ok()) ids[t].push_back(std::move(id).value());
      }
    });
  }
  for (std::thread& thread : uploaders) thread.join();
  for (std::thread& thread : queriers) thread.join();

  size_t completed = 0;
  for (const auto& batch : ids) {
    for (const std::string& id : batch) {
      ASSERT_TRUE(*gateway.WaitForCompletion(id, 120.0));
      const auto results = gateway.GetResults(id).value();
      ASSERT_EQ(results.size(), 1u);
      const TaskResult& result = results[0];
      if (result.status.ok()) {
        ++completed;
        EXPECT_EQ(result.ranking, expected) << result.task_id;
      } else {
        // With an unbounded spill tier nothing ever expires: the only
        // legal failure is a submit that outran its upload.
        EXPECT_EQ(result.status.code(), StatusCode::kNotFound)
            << result.status.ToString();
      }
    }
  }
  EXPECT_GT(completed, 0u);
  // The churn really did hit the disk tier. Demotion is write-behind, so
  // barrier on the flush thread before reading the counter.
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_GT(store.dataset_spill()->stats().spills, 0u);
}

TEST(StressTest, ConcurrentResultSpillReloadsStayConsistent) {
  // Writers push fresh results through a 2-slot retention window (every
  // insert demotes the oldest to disk) while readers reload arbitrary
  // ids. Each id's payload is derived from the id, so a reload can be
  // checked for integrity regardless of which tier served it.
  PlatformOptions options;
  options.max_retained_results = 2;
  options.spill_dir = FreshSpillDir("stress_result_spill");
  Datastore store(nullptr, options);

  constexpr int kThreads = 3;
  constexpr int kIters = 40;
  const auto result_for = [](int t, int i) {
    TaskResult result;
    result.task_id = "t" + std::to_string(t) + "-" + std::to_string(i);
    result.seconds = t * 1000.0 + i;
    result.ranking = {{static_cast<NodeId>(i), static_cast<double>(t)}};
    return result;
  };
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&store, &result_for, t] {
      for (int i = 0; i < kIters; ++i) store.PutResult(result_for(t, i));
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&store, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::string id =
            "t" + std::to_string(t) + "-" + std::to_string(i / 2);
        auto result = store.GetResult(id);
        if (result.ok()) {
          EXPECT_EQ(result->task_id, id);
          EXPECT_DOUBLE_EQ(result->seconds, t * 1000.0 + i / 2);
        }
      }
    });
  }
  for (std::thread& thread : writers) thread.join();
  for (std::thread& thread : readers) thread.join();
  // After the dust settles every written result is reachable — memory or
  // disk — and intact.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kIters; ++i) {
      const std::string id = "t" + std::to_string(t) + "-" + std::to_string(i);
      const TaskResult result = store.GetResult(id).value();
      EXPECT_DOUBLE_EQ(result.seconds, t * 1000.0 + i);
    }
  }
}

TEST(StressTest, WriteBehindChurnWithBackpressureStaysConsistent) {
  // Hammers the write-behind tier directly with a buffer bound small enough
  // that backpressure engages constantly: writers enqueue (and block),
  // the flusher drains, readers cross buffer and disk, and an eraser
  // retires keys mid-flight. Payloads are derived from their key
  // so any tier can be checked for integrity. Run under TSan via
  // tools/verify.sh.
  SpillTierOptions options;
  options.write_behind_bytes = 4096;  // a handful of entries at most
  SpillTier tier(FreshSpillDir("stress_write_behind"), options, "dataset");

  constexpr int kThreads = 3;
  constexpr int kIters = 60;
  const auto key_for = [](int t, int i) {
    return "w" + std::to_string(t) + "/k" + std::to_string(i);
  };
  const auto payload_for = [](int t, int i) {
    return std::string(512 + 64 * (i % 5), static_cast<char>('a' + t));
  };

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        EXPECT_TRUE(tier
                        .Put(key_for(t, i), payload_for(t, i),
                             static_cast<uint64_t>(i))
                        .ok());
      }
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const auto loaded = tier.Get(key_for(t, i / 2));
        if (loaded.ok()) {
          EXPECT_EQ(loaded->payload, payload_for(t, i / 2));
        }
        (void)tier.Contains(key_for((t + 1) % kThreads, i));
        (void)tier.stats();
      }
    });
  }
  std::thread eraser([&] {
    for (int i = 0; i < kIters / 2; ++i) {
      // Retires k1 and k10..k19 repeatedly.
      tier.Erase("w0/k1");
      tier.Erase("w0/k1" + std::to_string(i % 10));
      std::this_thread::yield();
    }
  });
  for (std::thread& thread : writers) thread.join();
  for (std::thread& thread : readers) thread.join();
  eraser.join();
  tier.Flush();

  // Every surviving key round-trips bit-identically from disk.
  for (const std::string& key : tier.Keys()) {
    const int t = key[1] - '0';
    const int i = std::stoi(key.substr(key.find("/k") + 2));
    EXPECT_EQ(tier.Get(key).value().payload, payload_for(t, i)) << key;
  }
  // The churn really exercised the buffer: with a 4 KiB bound and ~600-byte
  // payloads, writers must have outpaced the flusher at least once.
  EXPECT_GT(tier.stats().backpressure_waits, 0u);
}

TEST(StressTest, ColdMissesRaceWritesErasesAndFlushes) {
  // Two readers ask the tier about keys that were never stored, and about
  // keys a writer keeps putting, erasing and flushing. A cold key must
  // always miss, a hot key must load with its own payload or miss. Run
  // under TSan via tools/verify.sh.
  SpillTierOptions options;
  options.write_behind_bytes = 4096;
  SpillTier tier(FreshSpillDir("stress_cold_miss"), options, "dataset");
  constexpr int kIters = 200;
  const auto hot = [](int i) { return "hot/k" + std::to_string(i % 8); };
  const auto payload_for = [](const std::string& key) {
    return std::string(256, key.back());
  };
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; !done.load() || i < kIters; ++i) {
        const std::string cold = "cold/" + std::to_string(t) + "/" +
                                 std::to_string(i);
        EXPECT_EQ(tier.Get(cold).status().code(), StatusCode::kNotFound);
        EXPECT_FALSE(tier.Contains(cold));
        EXPECT_EQ(tier.Meta(cold), std::nullopt);
        const auto loaded = tier.Get(hot(i));
        if (loaded.ok()) {
          EXPECT_EQ(loaded->payload, payload_for(hot(i)));
        } else {
          EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
        }
        (void)tier.Contains(hot(i + 1));
        (void)tier.Meta(hot(i + 2));
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < kIters; ++i) {
      EXPECT_TRUE(tier.Put(hot(i), payload_for(hot(i)), i).ok());
      if (i % 3 == 0) tier.Erase(hot(i + 5));
      if (i % 7 == 0) {
        EXPECT_TRUE(tier.Flush().ok());
      }
    }
    done.store(true);
  });
  writer.join();
  for (std::thread& thread : readers) thread.join();
  EXPECT_TRUE(tier.Flush().ok());
  for (const std::string& key : tier.Keys()) {
    EXPECT_EQ(tier.Get(key).value().payload, payload_for(key)) << key;
  }
}

TEST(StressTest, ConcurrentResultCacheChurn) {
  // The result cache under concurrency: a budget of ~2 entries keeps
  // eviction constant, readers bump recency, and an invalidator erases
  // prefixes mid-flight. Entries are fingerprint-keyed and
  // content-derived, so any hit must match its key exactly.
  TaskResult probe;
  probe.task_id = "t0-0";
  probe.ranking.assign(50, {0, 0.0});
  const size_t one = ResultCache::EstimateBytes("d0/fp00", probe);
  ResultCache cache(2 * one + one / 2);

  constexpr int kThreads = 3;
  constexpr int kIters = 50;
  const auto fingerprint = [](int t, int i) {
    return "d" + std::to_string(t) + "/fp" + std::to_string(i);
  };
  const auto result_for = [](int t, int i) {
    TaskResult result;
    result.task_id = "t" + std::to_string(t) + "-" + std::to_string(i);
    result.ranking.assign(50, {static_cast<NodeId>(i),
                               static_cast<double>(t)});
    return result;
  };

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        cache.Put(fingerprint(t, i), result_for(t, i));
      }
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const auto hit = cache.Get(fingerprint(t, i / 2));
        if (hit.has_value()) {
          EXPECT_EQ(hit->task_id,
                    "t" + std::to_string(t) + "-" + std::to_string(i / 2));
        }
      }
    });
  }
  std::thread invalidator([&] {
    for (int i = 0; i < kIters / 4; ++i) {
      (void)cache.ErasePrefix("d1/");
      std::this_thread::yield();
    }
  });
  for (std::thread& thread : writers) thread.join();
  for (std::thread& thread : readers) thread.join();
  invalidator.join();

  // Whatever survived is intact under its key, within the budget.
  const ResultCacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, cache.max_bytes());
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kIters; ++i) {
      const auto hit = cache.Get(fingerprint(t, i));
      if (hit.has_value()) {
        EXPECT_EQ(hit->task_id,
                  "t" + std::to_string(t) + "-" + std::to_string(i));
      }
    }
  }
}

TEST(StressTest, ResultBeingDemotedIsNeverReportedExpired) {
  // Retention of one result with an unbounded result tier: every PutResult
  // evicts the previous result from memory and demotes it to the tier, and
  // readers chase the id that is being evicted right now (and the one just
  // before it). Every id ever stored is in memory or in the tier, so no
  // read may answer kExpired or kNotFound — in particular not one that
  // falls between the eviction and the demotion. Run under TSan via
  // tools/verify.sh.
  PlatformOptions options;
  options.max_retained_results = 1;
  options.spill_dir = FreshSpillDir("stress_result_demotion");
  Datastore store(nullptr, options);
  const auto result_for = [](int i) {
    TaskResult result;
    result.task_id = "r" + std::to_string(i);
    result.ranking.assign(8, {static_cast<NodeId>(i), 1.0});
    return result;
  };

  constexpr int kResults = 400;
  std::atomic<int> newest{-1};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (int i = 0; i < kResults; ++i) {
      store.PutResult(result_for(i));
      newest.store(i);
    }
  });
  std::vector<std::thread> readers;
  for (int lag = 0; lag < 2; ++lag) {
    readers.emplace_back([&, lag] {
      int last_read = -1;
      while (last_read < kResults - 1) {
        const int id = newest.load() - lag;
        if (id < 0) {
          std::this_thread::yield();
          continue;
        }
        const Result<TaskResult> got =
            store.GetResult("r" + std::to_string(id));
        if (!got.ok()) {
          failures.fetch_add(1);
          ADD_FAILURE() << "r" << id << ": " << got.status().ToString();
        } else {
          EXPECT_EQ(got->ranking.front().node, static_cast<NodeId>(id));
        }
        last_read = id + lag;
      }
    });
  }
  writer.join();
  for (std::thread& thread : readers) thread.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(store.Flush().ok());
  for (int i = 0; i < kResults; ++i) {
    EXPECT_TRUE(store.GetResult("r" + std::to_string(i)).ok()) << i;
  }
}

TEST(StressTest, StatusServiceConcurrentTransitions) {
  StatusService status;
  constexpr int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(status.Track("t" + std::to_string(i)).ok());
  }
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&status, t] {
      for (int i = t; i < kTasks; i += 4) {
        const std::string id = "t" + std::to_string(i);
        (void)status.SetState(id, TaskState::kRunning);
        (void)status.SetState(id, TaskState::kCompleted);
      }
    });
  }
  std::vector<std::string> all;
  for (int i = 0; i < kTasks; ++i) all.push_back("t" + std::to_string(i));
  for (std::thread& worker : workers) worker.join();
  ASSERT_TRUE(*status.WaitUntilTerminal(all, 10.0));
}

}  // namespace
}  // namespace cyclerank
