#ifndef CYCLERANK_COMMON_RESULT_H_
#define CYCLERANK_COMMON_RESULT_H_

#include <cassert>
#include <utility>
#include <variant>

#include "common/status.h"

namespace cyclerank {

/// `Result<T>` holds either a value of type `T` or an error `Status`.
///
/// This is the value-returning companion of `Status` (Arrow's
/// `arrow::Result`, abseil's `absl::StatusOr`). Construction from a `T`
/// yields an OK result; construction from a non-OK `Status` yields an error.
/// Accessing the value of an error result is a programming bug and is
/// guarded by an assertion in debug builds.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value — enables `return my_value;`.
  Result(T value) : payload_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit construction from an error status — enables
  /// `return Status::NotFound(...)`. Constructing from an OK status is a
  /// bug (there would be no value) and degrades to an Internal error.
  Result(Status status) : payload_(std::move(status)) {  // NOLINT
    if (std::get<Status>(payload_).ok()) {
      payload_ = Status::Internal("Result constructed from OK status");
    }
  }

  Result(const Result&) = default;
  Result& operator=(const Result&) = default;
  Result(Result&&) noexcept = default;
  Result& operator=(Result&&) noexcept = default;

  /// True iff a value is present.
  bool ok() const { return std::holds_alternative<T>(payload_); }

  /// The status: OK when a value is present, the error otherwise.
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(payload_);
  }

  /// Value accessors. Must only be called when `ok()`. On an rvalue the
  /// value is moved out and returned by value, so binding the result of
  /// `F().value()` or `*F()` (a range-for over it, say) outlives the
  /// temporary `Result`.
  const T& value() const& {
    assert(ok());
    return std::get<T>(payload_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(payload_);
  }
  T value() && {
    assert(ok());
    return std::get<T>(std::move(payload_));
  }

  /// Returns the value, or `fallback` when this result is an error.
  T value_or(T fallback) const {
    if (ok()) return std::get<T>(payload_);
    return fallback;
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> payload_;
};

/// Assigns the value of a `Result` expression to `lhs`, or propagates the
/// error. Usage: `CYCLERANK_ASSIGN_OR_RETURN(auto g, LoadGraph(path));`
#define CYCLERANK_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                    \
  if (!tmp.ok()) return tmp.status();                   \
  lhs = std::move(tmp).value()

#define CYCLERANK_ASSIGN_OR_RETURN(lhs, expr)                                 \
  CYCLERANK_ASSIGN_OR_RETURN_IMPL(                                            \
      CYCLERANK_CONCAT_(_result_tmp_, __LINE__), lhs, expr)

#define CYCLERANK_CONCAT_IMPL_(a, b) a##b
#define CYCLERANK_CONCAT_(a, b) CYCLERANK_CONCAT_IMPL_(a, b)

}  // namespace cyclerank

#endif  // CYCLERANK_COMMON_RESULT_H_
