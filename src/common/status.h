#ifndef CYCLERANK_COMMON_STATUS_H_
#define CYCLERANK_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace cyclerank {

/// Machine-readable category of a `Status`.
///
/// The set mirrors the error taxonomy used by storage-engine style C++
/// libraries (Arrow, RocksDB, LevelDB): a small closed enum so callers can
/// branch on the class of failure, with a free-form message for humans.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,   ///< Caller passed a malformed or out-of-domain value.
  kNotFound = 2,          ///< A named entity (node, dataset, task) is missing.
  kAlreadyExists = 3,     ///< Unique-key insertion collided.
  kOutOfRange = 4,        ///< Index or parameter outside the valid interval.
  kFailedPrecondition = 5,///< Object is not in the required state.
  kIOError = 6,           ///< Filesystem / stream failure.
  kParseError = 7,        ///< Input text does not conform to the grammar.
  kUnimplemented = 8,     ///< Declared but not (yet) supported path.
  kCancelled = 9,         ///< Cooperative cancellation was observed.
  kInternal = 10,         ///< Invariant violation inside the library.
  kExpired = 11,          ///< Entity existed but was evicted by retention.
  kDeadlineExceeded = 12, ///< The caller's deadline passed before completion.
  kUnavailable = 13,      ///< Transiently overloaded/degraded; retry later.
};

/// Returns the canonical spelling of `code`, e.g. "InvalidArgument".
std::string_view StatusCodeToString(StatusCode code);

/// Cheap value type describing the outcome of an operation.
///
/// `Status` is returned by every fallible public API in this library instead
/// of throwing exceptions. An OK status carries no
/// allocation; error statuses carry a code and a human-readable message.
///
/// Typical use:
/// ```
///   Status s = store.PutDataset(name, graph);
///   if (!s.ok()) return s;  // propagate
/// ```
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with an explicit code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  /// Factory helpers, one per error class.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Expired(std::string msg) {
    return Status(StatusCode::kExpired, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  /// True iff the operation succeeded.
  bool ok() const { return code_ == StatusCode::kOk; }

  /// The status code; `StatusCode::kOk` for success.
  StatusCode code() const { return code_; }

  /// Human-readable detail; empty for OK statuses.
  const std::string& message() const { return message_; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  /// Two statuses compare equal when code and message match.
  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Propagates a non-OK status to the caller. Mirrors Arrow's
/// `ARROW_RETURN_NOT_OK`.
#define CYCLERANK_RETURN_NOT_OK(expr)                \
  do {                                               \
    ::cyclerank::Status _st = (expr);                \
    if (!_st.ok()) return _st;                       \
  } while (false)

}  // namespace cyclerank

#endif  // CYCLERANK_COMMON_STATUS_H_
