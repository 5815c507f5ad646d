#include "platform/executor.h"

#include <atomic>
#include <string>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"

namespace cyclerank {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : store_(nullptr),
        executor_(&store_, &AlgorithmRegistry::Default(), &status_) {
    GraphBuilder builder;
    builder.AddEdge("a", "b");
    builder.AddEdge("b", "a");
    builder.AddEdge("b", "c");
    builder.AddEdge("c", "a");
    (void)store_.PutDataset("tiny", builder.BuildShared().value());
  }

  TaskSpec Spec(const std::string& algorithm, const std::string& params) {
    TaskSpec spec;
    spec.dataset = "tiny";
    spec.algorithm = algorithm;
    spec.params = ParamMap::Parse(params).value();
    return spec;
  }

  /// The id of the one task of a freshly tracked comparison.
  std::string Track() {
    return status_.Track({TaskSpec{}}).value().task_ids[0];
  }

  Datastore store_;
  StatusService status_;
  Executor executor_;
};

TEST_F(ExecutorTest, CompletesSuccessfulTask) {
  const std::string task = Track();
  executor_.Execute(task, Spec("pagerank", "alpha=0.85"));
  EXPECT_EQ(status_.GetState(task).value(), TaskState::kCompleted);
  const TaskResult result = store_.GetResult(task).value();
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.ranking.size(), 3u);
  EXPECT_GT(result.seconds, 0.0);
}

TEST_F(ExecutorTest, WritesLogLines) {
  const std::string task = Track();
  executor_.Execute(task, Spec("cyclerank", "source=a, k=3"));
  const auto log = store_.GetLog(task);
  ASSERT_GE(log.size(), 3u);
  EXPECT_NE(log.front().find("task accepted"), std::string::npos);
  EXPECT_NE(log.back().find("completed"), std::string::npos);
}

TEST_F(ExecutorTest, MissingDatasetFailsTask) {
  const std::string task = Track();
  TaskSpec spec = Spec("pagerank", "");
  spec.dataset = "ghost";
  executor_.Execute(task, spec);
  EXPECT_EQ(status_.GetState(task).value(), TaskState::kFailed);
  const TaskResult result = store_.GetResult(task).value();
  EXPECT_EQ(result.status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(result.ranking.empty());
}

TEST_F(ExecutorTest, UnknownAlgorithmFailsTask) {
  const std::string task = Track();
  executor_.Execute(task, Spec("hits", ""));
  EXPECT_EQ(status_.GetState(task).value(), TaskState::kFailed);
}

TEST_F(ExecutorTest, MissingReferenceFailsPersonalizedTask) {
  const std::string task = Track();
  executor_.Execute(task, Spec("cyclerank", "k=3"));  // no source=
  EXPECT_EQ(status_.GetState(task).value(), TaskState::kFailed);
  EXPECT_EQ(store_.GetResult(task).value().status.code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, BadParameterValueFailsTask) {
  const std::string task = Track();
  executor_.Execute(task, Spec("pagerank", "alpha=2.0"));
  EXPECT_EQ(status_.GetState(task).value(), TaskState::kFailed);
}

TEST_F(ExecutorTest, CancellationBeforeStart) {
  const std::string task = Track();
  std::atomic<bool> cancelled{true};
  executor_.Execute(task, Spec("pagerank", ""), &cancelled);
  EXPECT_EQ(status_.GetState(task).value(), TaskState::kCancelled);
  EXPECT_EQ(store_.GetResult(task).value().status.code(),
            StatusCode::kCancelled);
}

TEST_F(ExecutorTest, TopKParameterLimitsRanking) {
  const std::string task = Track();
  executor_.Execute(task, Spec("pagerank", "top_k=2"));
  EXPECT_EQ(store_.GetResult(task).value().ranking.size(), 2u);
}

TEST_F(ExecutorTest, LogsPinnedSnapshotWithByteFootprint) {
  const std::string task = Track();
  executor_.Execute(task, Spec("pagerank", ""));
  const GraphPtr g = store_.GetDataset("tiny").value();
  bool found = false;
  for (const std::string& line : store_.GetLog(task)) {
    if (line.find("pinned dataset snapshot 'tiny' (" +
                  std::to_string(g->MemoryBytes()) + " bytes)") !=
        std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ExecutorTest, DefaultThreadsAppliesOnlyWhenSpecIsSilent) {
  PlatformOptions options;
  options.default_threads = 3;
  Executor executor(&store_, &AlgorithmRegistry::Default(), &status_, options);

  const auto thread_log_line = [this](const std::string& task_id) {
    for (const std::string& line : store_.GetLog(task_id)) {
      if (line.find("kernel thread(s)") != std::string::npos) return line;
    }
    return std::string();
  };

  // No threads= in the spec: the deployment default applies.
  const std::string silent = Track();
  executor.Execute(silent, Spec("pagerank", "alpha=0.85"));
  EXPECT_NE(thread_log_line(silent).find("3 kernel thread(s)"),
            std::string::npos);

  // An explicit threads= always wins over the default.
  const std::string explicit_task = Track();
  executor.Execute(explicit_task, Spec("pagerank", "alpha=0.85, threads=2"));
  EXPECT_NE(thread_log_line(explicit_task).find("2 kernel thread(s)"),
            std::string::npos);

  // The ranking is bit-identical either way (threads are execution-only).
  EXPECT_EQ(store_.GetResult(silent).value().ranking,
            store_.GetResult(explicit_task).value().ranking);
}

TEST_F(ExecutorTest, ResultRankingMatchesDirectRun) {
  const std::string task = Track();
  executor_.Execute(task, Spec("cyclerank", "source=a, k=3"));
  const TaskResult result = store_.GetResult(task).value();

  const GraphPtr g = store_.GetDataset("tiny").value();
  const auto algorithm = MakeAlgorithm(AlgorithmKind::kCycleRank);
  AlgorithmRequest request;
  request.reference = g->FindNode("a");
  const RankedList direct = algorithm->Run(*g, request).value();
  EXPECT_EQ(result.ranking, direct);
}

}  // namespace
}  // namespace cyclerank
