#include "platform/status_service.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/uuid.h"

namespace cyclerank {
namespace {

/// Tracks a comparison of `n` tasks and returns what the service minted.
StatusService::Tracked TrackTasks(StatusService& status, size_t n) {
  return status.Track(std::vector<TaskSpec>(n)).value();
}

TEST(StatusServiceTest, TrackStartsPending) {
  StatusService status;
  const auto tracked = TrackTasks(status, 2);
  ASSERT_EQ(tracked.task_ids.size(), 2u);
  EXPECT_EQ(tracked.task_ids[1], tracked.comparison_id + "/1");
  EXPECT_EQ(status.GetState(tracked.task_ids[0]).value(), TaskState::kPending);
  EXPECT_EQ(status.GetState(tracked.task_ids[1]).value(), TaskState::kPending);
  EXPECT_FALSE(tracked.cancelled->load());
  EXPECT_EQ(status.size(), 1u);
}

TEST(StatusServiceTest, IdsFollowTheSeed) {
  // One Generate per Track: a seeded service mints the generator's
  // sequence, so ids are reproducible across runs.
  StatusService status(123);
  UuidGenerator twin(123);
  EXPECT_EQ(TrackTasks(status, 1).comparison_id, twin.Generate());
  EXPECT_EQ(TrackTasks(status, 3).comparison_id, twin.Generate());
}

TEST(StatusServiceTest, MalformedTaskIdsNotFound) {
  StatusService status;
  const std::string id = TrackTasks(status, 2).comparison_id;
  const std::vector<std::string> malformed = {
      id, id + "/", id + "/2", id + "/x", id + "/1x", "ghost/0"};
  for (const std::string& task_id : malformed) {
    EXPECT_EQ(status.SetState(task_id, TaskState::kRunning).code(),
              StatusCode::kNotFound)
        << task_id;
  }
}

TEST(StatusServiceTest, StateTransitions) {
  StatusService status;
  const std::string t = TrackTasks(status, 1).task_ids[0];
  ASSERT_TRUE(status.SetState(t, TaskState::kFetching).ok());
  ASSERT_TRUE(status.SetState(t, TaskState::kRunning).ok());
  ASSERT_TRUE(status.SetState(t, TaskState::kCompleted).ok());
  EXPECT_EQ(status.GetState(t).value(), TaskState::kCompleted);
}

TEST(StatusServiceTest, TerminalStatesAreFinal) {
  StatusService status;
  const std::string t = TrackTasks(status, 1).task_ids[0];
  ASSERT_TRUE(status.SetState(t, TaskState::kCancelled).ok());
  EXPECT_EQ(status.SetState(t, TaskState::kRunning).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(status.GetState(t).value(), TaskState::kCancelled);
}

TEST(StatusServiceTest, UnknownTaskNotFound) {
  StatusService status;
  EXPECT_EQ(status.GetState("x").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(status.SetState("x", TaskState::kRunning).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(status.GetStatus("x").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(status.Cancel("x").code(), StatusCode::kNotFound);
}

TEST(StatusServiceTest, GetStatusCountsEachTransition) {
  StatusService status;
  const auto tracked = TrackTasks(status, 4);
  ASSERT_TRUE(status.SetState(tracked.task_ids[0], TaskState::kRunning).ok());
  ASSERT_TRUE(
      status.SetState(tracked.task_ids[1], TaskState::kCompleted).ok());
  ASSERT_TRUE(status.SetState(tracked.task_ids[2], TaskState::kFailed).ok());
  ComparisonStatus snapshot = status.GetStatus(tracked.comparison_id).value();
  EXPECT_EQ(snapshot.comparison_id, tracked.comparison_id);
  EXPECT_EQ(snapshot.task_ids, tracked.task_ids);
  EXPECT_EQ(snapshot.states,
            (std::vector<TaskState>{TaskState::kRunning, TaskState::kCompleted,
                                    TaskState::kFailed, TaskState::kPending}));
  EXPECT_EQ(snapshot.completed, 1u);
  EXPECT_EQ(snapshot.failed, 1u);
  EXPECT_EQ(snapshot.cancelled, 0u);
  EXPECT_FALSE(snapshot.done);

  ASSERT_TRUE(
      status.SetState(tracked.task_ids[0], TaskState::kCancelled).ok());
  ASSERT_TRUE(
      status.SetState(tracked.task_ids[3], TaskState::kCompleted).ok());
  snapshot = status.GetStatus(tracked.comparison_id).value();
  EXPECT_EQ(snapshot.completed, 2u);
  EXPECT_EQ(snapshot.cancelled, 1u);
  EXPECT_TRUE(snapshot.done);
}

TEST(StatusServiceTest, GetStatusHandsBackTheSpecs) {
  StatusService status;
  std::vector<TaskSpec> specs(2);
  specs[0].algorithm = "pagerank";
  specs[1].algorithm = "cyclerank";
  const std::string id = status.Track(specs).value().comparison_id;
  std::vector<TaskSpec> out;
  ASSERT_TRUE(status.GetStatus(id, &out).ok());
  EXPECT_EQ(out, specs);
}

TEST(StatusServiceTest, CancelRaisesTheSharedFlag) {
  StatusService status;
  const auto tracked = TrackTasks(status, 2);
  ASSERT_TRUE(status.Cancel(tracked.comparison_id).ok());
  EXPECT_TRUE(tracked.cancelled->load());
}

TEST(StatusServiceTest, EraseForgetsTheComparison) {
  StatusService status;
  const auto tracked = TrackTasks(status, 1);
  status.Erase(tracked.comparison_id);
  EXPECT_EQ(status.size(), 0u);
  EXPECT_EQ(status.GetStatus(tracked.comparison_id).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(status.GetState(tracked.task_ids[0]).status().code(),
            StatusCode::kNotFound);
}

TEST(StatusServiceTest, ListenerFiresOnceAfterTheLastTask) {
  StatusService status;
  std::vector<std::string> calls;
  const uint64_t token = status.AddTerminalListener(
      [&calls](const std::string& comparison_id) {
        calls.push_back(comparison_id);
      });
  const auto tracked = TrackTasks(status, 3);
  ASSERT_TRUE(status.SetState(tracked.task_ids[2], TaskState::kFailed).ok());
  ASSERT_TRUE(status.SetState(tracked.task_ids[0], TaskState::kRunning).ok());
  ASSERT_TRUE(
      status.SetState(tracked.task_ids[0], TaskState::kCompleted).ok());
  EXPECT_TRUE(calls.empty());
  ASSERT_TRUE(
      status.SetState(tracked.task_ids[1], TaskState::kCancelled).ok());
  EXPECT_EQ(calls, std::vector<std::string>{tracked.comparison_id});
  // A rejected transition out of a terminal state fires nothing.
  EXPECT_FALSE(status.SetState(tracked.task_ids[1], TaskState::kFailed).ok());
  EXPECT_EQ(calls.size(), 1u);

  status.RemoveTerminalListener(token);
  const auto other = TrackTasks(status, 1);
  ASSERT_TRUE(status.SetState(other.task_ids[0], TaskState::kFailed).ok());
  EXPECT_EQ(calls.size(), 1u);
}

TEST(StatusServiceTest, WaitUntilDoneTimesOut) {
  StatusService status;
  const std::string id = TrackTasks(status, 1).comparison_id;
  const auto done = status.WaitUntilDone(id, 0.05);
  ASSERT_TRUE(done.ok());
  EXPECT_FALSE(*done);
}

TEST(StatusServiceTest, WaitUntilDoneWakesOnCompletion) {
  StatusService status;
  const auto tracked = TrackTasks(status, 1);
  std::thread setter([&status, &tracked] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    (void)status.SetState(tracked.task_ids[0], TaskState::kCompleted);
  });
  const auto done = status.WaitUntilDone(tracked.comparison_id, 5.0);
  setter.join();
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(*done);
}

TEST(StatusServiceTest, WaitValidatesIdsUpFront) {
  StatusService status;
  EXPECT_EQ(status.WaitUntilDone("ghost", 0.01).status().code(),
            StatusCode::kNotFound);
}

TEST(StatusServiceTest, NegativeTimeoutRejected) {
  // Before the fix every `timeout_seconds <= 0` silently meant "wait
  // forever", so a caller's sign bug became an infinite hang. Only exactly
  // 0 blocks indefinitely now.
  StatusService status;
  const std::string id = TrackTasks(status, 1).comparison_id;
  EXPECT_EQ(status.WaitUntilDone(id, -1.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(status.WaitUntilDone(id, -0.001).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StatusServiceTest, WaitOnMultipleTasks) {
  StatusService status;
  const auto tracked = TrackTasks(status, 2);
  ASSERT_TRUE(
      status.SetState(tracked.task_ids[0], TaskState::kCompleted).ok());
  // Task 1 still pending -> timeout.
  EXPECT_FALSE(*status.WaitUntilDone(tracked.comparison_id, 0.05));
  ASSERT_TRUE(status.SetState(tracked.task_ids[1], TaskState::kFailed).ok());
  EXPECT_TRUE(*status.WaitUntilDone(tracked.comparison_id, 0.05));
}

}  // namespace
}  // namespace cyclerank
