#ifndef CYCLERANK_E2EBENCH_TRACE_H_
#define CYCLERANK_E2EBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace cyclerank {
namespace e2ebench {

/// One timed call into a layer. Times are steady-clock nanoseconds.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;      ///< index of the enclosing span, -1 for a root
  uint64_t request_id = 0;  ///< shared by every span of one request
};

/// In-memory span recorder for the traced replay; written out only when
/// the replay ends. Disabled, it records nothing, so the same replay code
/// gives the untraced baseline that the tracing overhead is taken from.
/// Single-threaded.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span (a no-op returning -1 when disabled).
  int64_t Begin(std::string name, uint64_t request_id, int64_t parent = -1);
  void End(int64_t span);
  /// Adds a finished span (when the name is known only after the call).
  void Record(Span span) {
    if (enabled_) spans_.push_back(std::move(span));
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in milliseconds of every span named `name`.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Self times in milliseconds, summed per span name.
  std::map<std::string, double> SelfTimeMsByName() const;

  /// The spans as a JSON array.
  std::string ToJson() const;

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, uint64_t request_id,
             int64_t parent = -1)
      : tracer_(tracer),
        id_(tracer->Begin(std::move(name), request_id, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once,
/// children clipped to the parent).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

}  // namespace e2ebench
}  // namespace cyclerank

#endif  // CYCLERANK_E2EBENCH_TRACE_H_
