#include "platform/gateway.h"

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/mutex.h"
#include "common/uuid.h"
#include "graph/graph_builder.h"
#include "storage_test_util.h"

namespace cyclerank {
namespace {

class GatewayTest : public ::testing::Test {
 protected:
  GatewayTest()
      : store_(nullptr),
        gateway_(&store_, &AlgorithmRegistry::Default(),
                 PlatformOptions::WithWorkers(2, 123)) {
    GraphBuilder builder;
    builder.AddEdge("a", "b");
    builder.AddEdge("b", "a");
    builder.AddEdge("b", "c");
    builder.AddEdge("c", "a");
    (void)store_.PutDataset("tiny", builder.BuildShared().value());
  }

  QuerySet MakeQuerySet() {
    TaskBuilder builder;
    EXPECT_TRUE(builder.Add("tiny", "pagerank", "alpha=0.85").ok());
    EXPECT_TRUE(builder.Add("tiny", "cyclerank", "source=a, k=3").ok());
    EXPECT_TRUE(builder.Add("tiny", "pers_pagerank", "source=a").ok());
    return builder.Build();
  }

  Datastore store_;
  ApiGateway gateway_;
};

TEST_F(GatewayTest, SubmitReturnsUuidPermalink) {
  const std::string id = gateway_.SubmitQuerySet(MakeQuerySet()).value();
  EXPECT_TRUE(IsValidUuid(id));
}

TEST_F(GatewayTest, EndToEndCompletion) {
  const std::string id = gateway_.SubmitQuerySet(MakeQuerySet()).value();
  ASSERT_TRUE(*gateway_.WaitForCompletion(id, 30.0));
  const ComparisonStatus status = gateway_.GetStatus(id).value();
  EXPECT_TRUE(status.done);
  EXPECT_EQ(status.completed, 3u);
  EXPECT_EQ(status.failed, 0u);
  const auto results = gateway_.GetResults(id).value();
  ASSERT_EQ(results.size(), 3u);
  for (const TaskResult& result : results) {
    EXPECT_TRUE(result.status.ok()) << result.spec.ToString();
    EXPECT_FALSE(result.ranking.empty());
  }
}

TEST_F(GatewayTest, TaskIdsDeriveFromComparisonId) {
  const std::string id = gateway_.SubmitQuerySet(MakeQuerySet()).value();
  const ComparisonStatus status = gateway_.GetStatus(id).value();
  ASSERT_EQ(status.task_ids.size(), 3u);
  EXPECT_EQ(status.task_ids[0], id + "/0");
  EXPECT_EQ(status.task_ids[2], id + "/2");
}

TEST_F(GatewayTest, EmptyQuerySetRejected) {
  EXPECT_EQ(gateway_.SubmitQuerySet(QuerySet{}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(GatewayTest, UnknownAlgorithmRejectedSynchronously) {
  TaskBuilder builder;
  ASSERT_TRUE(builder.Add("tiny", "hits", "").ok());
  EXPECT_EQ(gateway_.SubmitQuerySet(builder.Build()).status().code(),
            StatusCode::kNotFound);
}

TEST_F(GatewayTest, BadDatasetSurfacesAsFailedTask) {
  TaskBuilder builder;
  ASSERT_TRUE(builder.Add("ghost", "pagerank", "").ok());
  ASSERT_TRUE(builder.Add("tiny", "pagerank", "").ok());
  const std::string id = gateway_.SubmitQuerySet(builder.Build()).value();
  ASSERT_TRUE(*gateway_.WaitForCompletion(id, 30.0));
  const ComparisonStatus status = gateway_.GetStatus(id).value();
  EXPECT_EQ(status.failed, 1u);
  EXPECT_EQ(status.completed, 1u);
  const auto results = gateway_.GetResults(id).value();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(results[1].status.ok());
}

TEST_F(GatewayTest, UnknownComparisonIdNotFound) {
  EXPECT_EQ(gateway_.GetStatus("bogus").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(gateway_.GetResults("bogus").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(gateway_.Cancel("bogus").code(), StatusCode::kNotFound);
  EXPECT_EQ(gateway_.WaitForCompletion("bogus", 0.1).status().code(),
            StatusCode::kNotFound);
}

TEST_F(GatewayTest, DistinctSubmissionsGetDistinctIds) {
  const std::string a = gateway_.SubmitQuerySet(MakeQuerySet()).value();
  const std::string b = gateway_.SubmitQuerySet(MakeQuerySet()).value();
  EXPECT_NE(a, b);
}

TEST_F(GatewayTest, ManyConcurrentSubmissions) {
  std::vector<std::string> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(gateway_.SubmitQuerySet(MakeQuerySet()).value());
  }
  for (const std::string& id : ids) {
    ASSERT_TRUE(*gateway_.WaitForCompletion(id, 60.0));
    EXPECT_EQ(gateway_.GetStatus(id).value().completed, 3u);
  }
}

TEST_F(GatewayTest, ResultsBeforeCompletionSkipPendingTasks) {
  const std::string id = gateway_.SubmitQuerySet(MakeQuerySet()).value();
  // Immediately fetch: whatever is terminal is returned, no error.
  const auto results = gateway_.GetResults(id);
  ASSERT_TRUE(results.ok());
  EXPECT_LE(results->size(), 3u);
  ASSERT_TRUE(*gateway_.WaitForCompletion(id, 30.0));
}

TEST_F(GatewayTest, BadAlgorithmMidSetRejectedWithoutSideEffects) {
  // Slot 2 of 3 names an unknown algorithm: the whole set is rejected
  // synchronously, nothing is tracked or enqueued, and the gateway keeps
  // serving later submissions (no task stuck kPending, nothing to hang on).
  TaskBuilder builder;
  ASSERT_TRUE(builder.Add("tiny", "pagerank", "").ok());
  ASSERT_TRUE(builder.Add("tiny", "no_such_algorithm", "").ok());
  ASSERT_TRUE(builder.Add("tiny", "cyclerank", "source=a, k=3").ok());
  EXPECT_EQ(gateway_.SubmitQuerySet(builder.Build()).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(gateway_.status_service().size(), 0u);
  const std::string id = gateway_.SubmitQuerySet(MakeQuerySet()).value();
  ASSERT_TRUE(*gateway_.WaitForCompletion(id, 30.0));
}

TEST_F(GatewayTest, SubmitAfterShutdownFailsWithoutStuckTasks) {
  UuidGenerator twin(123);
  const std::string next = twin.Generate();
  gateway_.Shutdown();
  const auto submitted = gateway_.SubmitQuerySet(MakeQuerySet());
  EXPECT_EQ(submitted.status().code(), StatusCode::kFailedPrecondition);
  // Enqueue failed on the first task, so the comparison was erased and
  // every task was rolled back to kFailed with a stored result carrying
  // the submission error — nothing can hang.
  EXPECT_EQ(gateway_.GetStatus(next).status().code(), StatusCode::kNotFound);
  for (int i = 0; i < 3; ++i) {
    const TaskResult rolled_back =
        store_.GetResult(next + "/" + std::to_string(i)).value();
    EXPECT_EQ(rolled_back.status.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(rolled_back.spec, MakeQuerySet().tasks[i]);
  }
}

TEST_F(GatewayTest, ResubmittedQuerySetServedFromCache) {
  const std::string first_id = gateway_.SubmitQuerySet(MakeQuerySet()).value();
  ASSERT_TRUE(*gateway_.WaitForCompletion(first_id, 30.0));
  const auto first = gateway_.GetResults(first_id).value();
  const ResultCacheStats before = gateway_.result_cache().stats();

  const std::string second_id = gateway_.SubmitQuerySet(MakeQuerySet()).value();
  ASSERT_TRUE(*gateway_.WaitForCompletion(second_id, 30.0));
  const auto second = gateway_.GetResults(second_id).value();
  const ResultCacheStats after = gateway_.result_cache().stats();

  // All three tasks were cache hits, and the served rankings are
  // bit-identical to the originals under the resubmission's own task ids.
  EXPECT_EQ(after.hits, before.hits + 3);
  ASSERT_EQ(second.size(), first.size());
  for (size_t i = 0; i < second.size(); ++i) {
    EXPECT_TRUE(second[i].status.ok());
    EXPECT_EQ(second[i].ranking, first[i].ranking);
    EXPECT_EQ(second[i].task_id, second_id + "/" + std::to_string(i));
    EXPECT_EQ(second[i].spec, first[i].spec);
  }
}

TEST_F(GatewayTest, ThreadCountExcludedFromCacheKey) {
  TaskBuilder first;
  ASSERT_TRUE(first.Add("tiny", "pagerank", "alpha=0.85, threads=1").ok());
  const std::string a = gateway_.SubmitQuerySet(first.Build()).value();
  ASSERT_TRUE(*gateway_.WaitForCompletion(a, 30.0));

  // Same computation, different execution knob and key order: still a hit.
  TaskBuilder second;
  ASSERT_TRUE(second.Add("tiny", "pagerank", "threads=4, alpha=0.85").ok());
  const ResultCacheStats before = gateway_.result_cache().stats();
  const std::string b = gateway_.SubmitQuerySet(second.Build()).value();
  ASSERT_TRUE(*gateway_.WaitForCompletion(b, 30.0));
  EXPECT_EQ(gateway_.result_cache().stats().hits, before.hits + 1);
  EXPECT_EQ(gateway_.GetResults(b).value()[0].ranking,
            gateway_.GetResults(a).value()[0].ranking);
}

TEST_F(GatewayTest, NegativeWaitTimeoutRejected) {
  const std::string id = gateway_.SubmitQuerySet(MakeQuerySet()).value();
  EXPECT_EQ(gateway_.WaitForCompletion(id, -1.0).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(*gateway_.WaitForCompletion(id, 30.0));
}

TEST(GatewayOptionsTest, AdmissionLimitRejectsOversizedQuerySets) {
  Datastore store(nullptr);
  GraphBuilder builder;
  builder.AddEdge("a", "b");
  builder.AddEdge("b", "a");
  (void)store.PutDataset("tiny", builder.BuildShared().value());
  PlatformOptions options;
  options.num_workers = 2;
  options.uuid_seed = 17;
  options.max_tasks_per_submission = 2;
  ApiGateway gateway(&store, &AlgorithmRegistry::Default(), options);

  TaskBuilder oversized;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(oversized
                    .Add("tiny", "pagerank", "seed=" + std::to_string(i))
                    .ok());
  }
  const auto rejected = gateway.SubmitQuerySet(oversized.Build());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("max_tasks_per_submission"),
            std::string::npos);
  // Rejection is synchronous and side-effect free.
  EXPECT_EQ(gateway.status_service().size(), 0u);

  // A set at the limit is admitted and completes.
  TaskBuilder at_limit;
  ASSERT_TRUE(at_limit.Add("tiny", "pagerank", "seed=0").ok());
  ASSERT_TRUE(at_limit.Add("tiny", "pagerank", "seed=1").ok());
  const std::string id = gateway.SubmitQuerySet(at_limit.Build()).value();
  ASSERT_TRUE(*gateway.WaitForCompletion(id, 30.0));
  EXPECT_EQ(gateway.GetStatus(id).value().completed, 2u);
}

TEST(GatewayOptionsTest, ConstructibleFromParsedOptionsString) {
  // A deployment configures the whole stack from one key=value string:
  // the same options object drives both the datastore's budgets and the
  // gateway's workers / ids / admission.
  const PlatformOptions options =
      PlatformOptions::FromString(
          "num_workers=2, uuid_seed=123, max_retained_results=8, "
          "result_cache_bytes=1m, max_tasks_per_submission=4")
          .value();
  Datastore store(nullptr, options);
  ApiGateway gateway(&store, &AlgorithmRegistry::Default(), options);
  EXPECT_EQ(gateway.num_workers(), 2u);
  EXPECT_EQ(gateway.options(), options);

  GraphBuilder builder;
  builder.AddEdge("a", "b");
  builder.AddEdge("b", "a");
  ASSERT_TRUE(store.PutDataset("tiny", builder.BuildShared().value()).ok());
  TaskBuilder tasks;
  ASSERT_TRUE(tasks.Add("tiny", "pagerank", "alpha=0.85").ok());
  const std::string id = gateway.SubmitQuerySet(tasks.Build()).value();
  EXPECT_TRUE(IsValidUuid(id));
  ASSERT_TRUE(*gateway.WaitForCompletion(id, 30.0));
  const auto results = gateway.GetResults(id).value();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].status.ok());
}

TEST(GatewayOptionsTest, ReboundDatasetNameNeverServesStaleCachedResults) {
  // The result cache is keyed by dataset *name*; when eviction + re-upload
  // binds a name to different content, cached results of the old binding
  // must be invalidated — not served as the new graph's rankings.
  const GraphPtr old_graph = ChainGraph(100);
  const GraphPtr new_graph = ChainGraph(120);
  PlatformOptions options;
  options.graph_store_bytes = new_graph->MemoryBytes();  // holds one graph
  options.num_workers = 1;
  options.uuid_seed = 29;
  Datastore store(nullptr, options);
  ApiGateway gateway(&store, &AlgorithmRegistry::Default(), options);
  ASSERT_TRUE(store.PutDataset("d", old_graph).ok());

  TaskBuilder builder;
  ASSERT_TRUE(builder.Add("d", "pagerank", "alpha=0.85").ok());
  const std::string first = gateway.SubmitQuerySet(builder.Build()).value();
  ASSERT_TRUE(*gateway.WaitForCompletion(first, 30.0));
  ASSERT_EQ(gateway.GetResults(first).value()[0].ranking.size(), 100u);

  // Evict 'd', then rebind the name to the 120-node graph.
  ASSERT_TRUE(store.PutDataset("filler", ChainGraph(100)).ok());
  ASSERT_EQ(store.GetDataset("d").status().code(), StatusCode::kExpired);
  ASSERT_TRUE(store.PutDataset("d", new_graph).ok());
  EXPECT_GT(gateway.result_cache().stats().invalidations, 0u);

  // The identical spec now computes on the new binding.
  const std::string second = gateway.SubmitQuerySet(builder.Build()).value();
  ASSERT_TRUE(*gateway.WaitForCompletion(second, 30.0));
  const auto results = gateway.GetResults(second).value();
  ASSERT_TRUE(results[0].status.ok());
  EXPECT_EQ(results[0].ranking.size(), 120u);
}

TEST(GatewayOptionsTest, TaskKeyedWhileDatasetAbsentIsNeverCached) {
  // A task submitted while its dataset is absent runs un-keyed: if an
  // upload races in between submit and fetch, the (successful) result must
  // not enter the cache — the "absent" state is not a binding, and a later
  // submission while the name is evicted again must answer kExpired, not a
  // completed cache hit.
  const GraphPtr graph = ChainGraph(100);
  PlatformOptions options;
  options.graph_store_bytes = graph->MemoryBytes();  // holds one graph
  options.num_workers = 1;
  options.uuid_seed = 37;
  Datastore store(nullptr, options);
  ApiGateway gateway(&store, &AlgorithmRegistry::Default(), options);

  // Occupy the single worker so the next submission stays queued.
  ASSERT_TRUE(store.PutDataset("hot", graph).ok());
  TaskBuilder slow;
  ASSERT_TRUE(slow.Add("hot", "ppr_montecarlo", "source=0, walks=2000000").ok());
  const std::string slow_id = gateway.SubmitQuerySet(slow.Build()).value();

  // Queued while 'd' is absent; 'd' is uploaded before the task dispatches
  // (evicting "hot", whose pinned run still completes).
  TaskBuilder builder;
  ASSERT_TRUE(builder.Add("d", "pagerank", "alpha=0.85").ok());
  const std::string first = gateway.SubmitQuerySet(builder.Build()).value();
  ASSERT_TRUE(store.PutDataset("d", ChainGraph(100)).ok());
  ASSERT_TRUE(*gateway.WaitForCompletion(slow_id, 60.0));
  ASSERT_TRUE(*gateway.WaitForCompletion(first, 60.0));
  ASSERT_TRUE(gateway.GetResults(first).value()[0].status.ok());

  // Evict 'd' again; the identical spec must fail kExpired — never be
  // served the raced run's result from the cache.
  ASSERT_TRUE(store.PutDataset("filler", ChainGraph(100)).ok());
  ASSERT_EQ(store.GetDataset("d").status().code(), StatusCode::kExpired);
  const std::string second = gateway.SubmitQuerySet(builder.Build()).value();
  ASSERT_TRUE(*gateway.WaitForCompletion(second, 60.0));
  const auto results = gateway.GetResults(second).value();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kExpired);
}

TEST(GatewayCancelTest, CancelSkipsQueuedTasks) {
  Datastore store(nullptr);
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 0);
  (void)store.PutDataset("d", builder.BuildShared().value());
  // Single worker: queue many tasks, cancel while the first ones run.
  ApiGateway gateway(&store, &AlgorithmRegistry::Default(),
      PlatformOptions::WithWorkers(1, 7));
  TaskBuilder tasks;
  for (int i = 0; i < 50; ++i) {
    // Distinct seeds keep the fingerprints distinct: identical tasks would
    // be coalesced by the single-flight layer and never sit in the queue,
    // which is exactly what this test needs them to do.
    ASSERT_TRUE(tasks.Add("d", "ppr_montecarlo",
                          "source=0, walks=200000, seed=" + std::to_string(i))
                    .ok());
  }
  const std::string id = gateway.SubmitQuerySet(tasks.Build()).value();
  ASSERT_TRUE(gateway.Cancel(id).ok());
  ASSERT_TRUE(*gateway.WaitForCompletion(id, 60.0));
  const ComparisonStatus status = gateway.GetStatus(id).value();
  EXPECT_TRUE(status.done);
  // At least some queued tasks observed the flag.
  EXPECT_GT(status.cancelled, 0u);
}

/// The order in which kernels started: one "<algorithm>/<seed>" per run.
struct RunLog {
  Mutex mu;
  std::vector<std::string> runs CYR_GUARDED_BY(mu);

  std::vector<std::string> Take() {
    MutexLock lock(mu);
    return std::exchange(runs, {});
  }
};

/// Logs its start, then sleeps a fixed time: with one worker the log is
/// the dispatch order, and the sleep is the kernel time the executor
/// learns.
class SleepAlgorithm final : public RelevanceAlgorithm {
 public:
  SleepAlgorithm(std::string name, int millis, RunLog* log)
      : name_(std::move(name)), millis_(millis), log_(log) {}
  std::string_view name() const override { return name_; }
  bool requires_reference() const override { return false; }
  bool produces_scores() const override { return true; }
  Result<RankedList> Run(const Graph& g,
                         const AlgorithmRequest& request) const override {
    {
      MutexLock lock(log_->mu);
      log_->runs.push_back(name_ + "/" + std::to_string(request.seed));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(millis_));
    std::vector<double> scores(g.num_nodes(), 1.0);
    RankingOptions options;
    options.drop_zeros = false;
    return ScoresToRankedList(scores, options);
  }

 private:
  const std::string name_;
  const int millis_;
  RunLog* const log_;
};

class GatewayDispatchOrderTest : public ::testing::Test {
 protected:
  GatewayDispatchOrderTest() : store_(nullptr) {
    for (const auto& [name, millis] :
         {std::pair<const char*, int>{"short", 1}, {"mid", 15}, {"long", 40},
          {"fresh", 1}}) {
      EXPECT_TRUE(
          registry_.Register(std::make_shared<SleepAlgorithm>(name, millis,
                                                              &log_))
              .ok());
    }
    GraphBuilder builder;
    builder.AddEdge("a", "b");
    builder.AddEdge("b", "a");
    (void)store_.PutDataset("tiny", builder.BuildShared().value());
  }

  /// One task per (algorithm, seed); distinct seeds keep the fingerprints
  /// distinct, so no task is a cache hit or a single-flight follower.
  static QuerySet Set(
      const std::vector<std::pair<std::string, int>>& tasks) {
    TaskBuilder builder;
    for (const auto& [algorithm, seed] : tasks) {
      EXPECT_TRUE(
          builder.Add("tiny", algorithm, "seed=" + std::to_string(seed)).ok());
    }
    return builder.Build();
  }

  /// Submits `set`, waits for it, checks that ids and results follow the
  /// request order, and returns the order the kernels ran in.
  std::vector<std::string> RunSet(ApiGateway& gateway, const QuerySet& set) {
    log_.Take();
    const std::string id = gateway.SubmitQuerySet(set).value();
    EXPECT_TRUE(*gateway.WaitForCompletion(id, 60.0));
    const auto results = gateway.GetResults(id).value();
    EXPECT_EQ(results.size(), set.tasks.size());
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_TRUE(results[i].status.ok()) << results[i].status.ToString();
      EXPECT_EQ(results[i].task_id, id + "/" + std::to_string(i));
      EXPECT_EQ(results[i].spec, set.tasks[i]);
    }
    return log_.Take();
  }

  RunLog log_;
  AlgorithmRegistry registry_;
  Datastore store_;
};

TEST_F(GatewayDispatchOrderTest, LearnedCostRunsLongestFirst) {
  ApiGateway gateway(&store_, &registry_, PlatformOptions::WithWorkers(1, 9));
  // Nothing has run yet: every estimate is +infinity, so the request order
  // stands.
  EXPECT_EQ(RunSet(gateway, Set({{"short", 1}, {"mid", 1}, {"long", 1}})),
            (std::vector<std::string>{"short/1", "mid/1", "long/1"}));
  // Warm: longest first, and the two equal-cost tasks in request order.
  EXPECT_EQ(RunSet(gateway, Set({{"short", 2}, {"long", 2}, {"mid", 2},
                                 {"long", 3}})),
            (std::vector<std::string>{"long/2", "long/3", "mid/2", "short/2"}));
  // An algorithm never seen before sorts ahead of every estimate.
  EXPECT_EQ(RunSet(gateway, Set({{"short", 4}, {"long", 4}, {"fresh", 1}})),
            (std::vector<std::string>{"fresh/1", "long/4", "short/4"}));
}

TEST_F(GatewayDispatchOrderTest, RollbackFollowsTheCostOrder) {
  // One worker and one waiting slot: of a three-task set the first enqueued
  // runs, the second waits, and the third is refused.
  PlatformOptions options = PlatformOptions::WithWorkers(1, 11);
  options.admission_queue_limit = 1;
  ApiGateway gateway(&store_, &registry_, options);
  UuidGenerator twin(11);
  for (const char* algorithm : {"short", "mid", "long"}) {
    (void)twin.Generate();
    RunSet(gateway, Set({{algorithm, 1}}));
  }

  // Cost order is long, mid, short: `short`, the request's first task, is
  // the one refused.
  const QuerySet set = Set({{"short", 2}, {"mid", 2}, {"long", 2}});
  const std::string next = twin.Generate();
  const auto submitted = gateway.SubmitQuerySet(set);
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kUnavailable);
  ASSERT_TRUE(*gateway.WaitForCompletion(next, 60.0));
  const ComparisonStatus status = gateway.GetStatus(next).value();
  for (TaskState state : status.states) {
    EXPECT_NE(state, TaskState::kPending);
  }
  EXPECT_EQ(status.states[0], TaskState::kFailed);
  const TaskResult rolled_back = store_.GetResult(next + "/0").value();
  EXPECT_EQ(rolled_back.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(rolled_back.spec, set.tasks[0]);
  const auto results = gateway.GetResults(next).value();
  EXPECT_EQ(results.size(), set.tasks.size());
  for (const TaskResult& result : results) {
    const size_t i = std::stoul(result.task_id.substr(next.size() + 1));
    EXPECT_EQ(result.spec, set.tasks[i]) << result.task_id;
  }
}

}  // namespace
}  // namespace cyclerank
