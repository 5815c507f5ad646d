#include "platform/status_service.h"

#include <charconv>
#include <chrono>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace cyclerank {
namespace {

/// `"<comparison-id>/<index>"` split in two; nullopt for any other shape.
std::optional<std::pair<std::string_view, size_t>> SplitTaskId(
    std::string_view task_id) {
  const size_t slash = task_id.rfind('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const std::string_view digits = task_id.substr(slash + 1);
  size_t index = 0;
  const auto [end, error] =
      std::from_chars(digits.data(), digits.data() + digits.size(), index);
  if (error != std::errc() || end != digits.data() + digits.size()) {
    return std::nullopt;
  }
  return std::make_pair(task_id.substr(0, slash), index);
}

/// The ids of a comparison's `n` tasks, in task order.
std::vector<std::string> TaskIds(const std::string& comparison_id, size_t n) {
  std::vector<std::string> task_ids;
  task_ids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    task_ids.push_back(comparison_id + "/" + std::to_string(i));
  }
  return task_ids;
}

Status TaskNotTracked(const std::string& task_id) {
  return Status::NotFound("status: task '" + task_id + "' not tracked");
}

/// Worded as the gateway has always answered it: the text goes out in
/// GET_STATUS, WAIT and GET_RESULTS error frames.
Status ComparisonNotFound(const std::string& comparison_id) {
  return Status::NotFound("gateway: comparison '" + comparison_id +
                          "' not found");
}

}  // namespace

Result<StatusService::Tracked> StatusService::Track(
    std::vector<TaskSpec> specs) {
  const size_t n = specs.size();
  Tracked tracked;
  tracked.cancelled = std::make_shared<std::atomic<bool>>(false);
  Record record;
  record.states.assign(n, TaskState::kPending);
  record.specs = std::move(specs);
  record.cancel = tracked.cancelled;
  {
    MutexLock lock(mu_);
    tracked.comparison_id = uuid_.Generate();
    if (!records_.emplace(tracked.comparison_id, std::move(record)).second) {
      return Status::AlreadyExists("status: comparison '" +
                                   tracked.comparison_id +
                                   "' already tracked");
    }
  }
  tracked.task_ids = TaskIds(tracked.comparison_id, n);
  return tracked;
}

void StatusService::Erase(const std::string& comparison_id) {
  MutexLock lock(mu_);
  records_.erase(comparison_id);
}

Status StatusService::SetState(const std::string& task_id, TaskState state) {
  const auto split = SplitTaskId(task_id);
  // Snapshot the listeners under the same lock as the transition so a
  // listener added before the last terminal write always observes it,
  // then invoke outside the lock (a listener poking a wakeup fd must not
  // extend this critical section, and the waiters notified below may
  // immediately re-enter GetStatus).
  std::vector<TerminalListener> to_notify;
  {
    MutexLock lock(mu_);
    auto it = split ? records_.find(split->first) : records_.end();
    if (it == records_.end() || split->second >= it->second.states.size()) {
      return TaskNotTracked(task_id);
    }
    Record& record = it->second;
    TaskState& slot = record.states[split->second];
    if (IsTerminal(slot)) {
      return Status::FailedPrecondition(
          "status: task '" + task_id + "' is already terminal (" +
          std::string(TaskStateToString(slot)) + ")");
    }
    slot = state;
    if (!IsTerminal(state)) return Status::OK();
    ++record.terminal;
    if (state == TaskState::kCompleted) ++record.completed;
    if (state == TaskState::kFailed) ++record.failed;
    if (state == TaskState::kCancelled) ++record.cancelled;
    if (!record.done()) return Status::OK();
    to_notify.reserve(listeners_.size());
    for (const auto& [token, listener] : listeners_) {
      (void)token;
      to_notify.push_back(listener);
    }
  }
  finished_.NotifyAll();
  const std::string comparison_id(split->first);
  for (const TerminalListener& listener : to_notify) listener(comparison_id);
  return Status::OK();
}

Result<TaskState> StatusService::GetState(const std::string& task_id) const {
  const auto split = SplitTaskId(task_id);
  MutexLock lock(mu_);
  auto it = split ? records_.find(split->first) : records_.end();
  if (it == records_.end() || split->second >= it->second.states.size()) {
    return TaskNotTracked(task_id);
  }
  return it->second.states[split->second];
}

Result<ComparisonStatus> StatusService::GetStatus(
    const std::string& comparison_id, std::vector<TaskSpec>* specs) const {
  ComparisonStatus status;
  {
    MutexLock lock(mu_);
    auto it = records_.find(comparison_id);
    if (it == records_.end()) return ComparisonNotFound(comparison_id);
    const Record& record = it->second;
    status.states = record.states;
    status.completed = record.completed;
    status.failed = record.failed;
    status.cancelled = record.cancelled;
    status.done = record.done();
    if (specs != nullptr) *specs = record.specs;
  }
  status.comparison_id = comparison_id;
  status.task_ids = TaskIds(comparison_id, status.states.size());
  return status;
}

Status StatusService::Cancel(const std::string& comparison_id) {
  MutexLock lock(mu_);
  auto it = records_.find(comparison_id);
  if (it == records_.end()) return ComparisonNotFound(comparison_id);
  it->second.cancel->store(true, std::memory_order_relaxed);
  return Status::OK();
}

Result<bool> StatusService::WaitUntilDone(const std::string& comparison_id,
                                          double timeout_seconds) const {
  // Validate inputs first so a typo or sign bug fails fast instead of
  // hanging: only exactly 0 means "block indefinitely".
  if (timeout_seconds < 0.0) {
    return Status::InvalidArgument(
        "status: timeout_seconds must be >= 0 (0 blocks indefinitely), got " +
        std::to_string(timeout_seconds));
  }
  MutexLock lock(mu_);
  if (records_.find(comparison_id) == records_.end()) {
    return ComparisonNotFound(comparison_id);
  }
  // Look the record up on every wakeup: a rolled-back submission fails all
  // of its tasks and then erases its record.
  auto done = [&]() CYR_REQUIRES(mu_) -> bool {
    auto it = records_.find(comparison_id);
    return it == records_.end() || it->second.done();
  };
  if (timeout_seconds == 0.0) {
    finished_.Wait(mu_, done);
    return true;
  }
  return finished_.WaitFor(
      mu_, std::chrono::duration<double>(timeout_seconds), done);
}

size_t StatusService::size() const {
  MutexLock lock(mu_);
  return records_.size();
}

uint64_t StatusService::AddTerminalListener(TerminalListener listener) {
  MutexLock lock(mu_);
  const uint64_t token = next_listener_token_++;
  listeners_.emplace(token, std::move(listener));
  return token;
}

void StatusService::RemoveTerminalListener(uint64_t token) {
  MutexLock lock(mu_);
  listeners_.erase(token);
}

}  // namespace cyclerank
