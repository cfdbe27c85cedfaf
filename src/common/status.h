#ifndef M3R_COMMON_STATUS_H_
#define M3R_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace m3r {

/// Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kNotFound,
  kAlreadyExists,
  kInvalidArgument,
  kIOError,
  kFailedPrecondition,
  kUnimplemented,
  kInternal,
  /// Transient conflict (optimistic-lock budget exhausted, ...): safe to
  /// retry the whole operation.
  kAborted,
  /// Explicitly cancelled by the caller; never retried.
  kCancelled,
  /// A resource (node, place, service) is temporarily gone — the code
  /// injected faults and place crashes surface as. Retriable.
  kUnavailable,
  /// Stored or in-flight bytes failed checksum verification and no intact
  /// replica was available. Retriable at task granularity: a fresh attempt
  /// re-reads/re-fetches the data from its authoritative source.
  kDataLoss,
  /// Admission control rejected the request: a serving queue is at its
  /// configured depth (JobServer::Options::queue_depth). Backpressure, not
  /// failure — retriable after the backlog drains.
  kOverloaded,
  /// The job watchdog killed a job that exceeded m3r.job.timeout.sec or
  /// stopped heartbeating for m3r.job.heartbeat.stall.sec. Retriable: a
  /// stall is usually transient (memory pressure, a crashed place being
  /// healed), and a fresh attempt starts with a fresh deadline.
  kDeadlineExceeded,
};

/// True for codes that denote transient conditions a caller may retry
/// (IOError, Aborted, Unavailable) as opposed to deterministic failures
/// (InvalidArgument, NotFound, ...) that would just fail again.
bool IsRetriable(StatusCode code);

/// Returns a short human-readable name for `code` (e.g. "NotFound").
const char* StatusCodeName(StatusCode code);

/// Outcome of an operation that can fail: a code plus a message.
///
/// Follows the Arrow/Abseil convention: functions that can fail return a
/// Status (or Result<T>), and callers are expected to check it. Statuses are
/// cheap to copy in the OK case.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string m) {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status AlreadyExists(std::string m) {
    return Status(StatusCode::kAlreadyExists, std::move(m));
  }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status IOError(std::string m) {
    return Status(StatusCode::kIOError, std::move(m));
  }
  static Status FailedPrecondition(std::string m) {
    return Status(StatusCode::kFailedPrecondition, std::move(m));
  }
  static Status Unimplemented(std::string m) {
    return Status(StatusCode::kUnimplemented, std::move(m));
  }
  static Status Internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }
  static Status Aborted(std::string m) {
    return Status(StatusCode::kAborted, std::move(m));
  }
  static Status Cancelled(std::string m) {
    return Status(StatusCode::kCancelled, std::move(m));
  }
  static Status Unavailable(std::string m) {
    return Status(StatusCode::kUnavailable, std::move(m));
  }
  static Status DataLoss(std::string m) {
    return Status(StatusCode::kDataLoss, std::move(m));
  }
  static Status Overloaded(std::string m) {
    return Status(StatusCode::kOverloaded, std::move(m));
  }
  static Status DeadlineExceeded(std::string m) {
    return Status(StatusCode::kDeadlineExceeded, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }
  bool IsAborted() const { return code_ == StatusCode::kAborted; }
  bool IsCancelled() const { return code_ == StatusCode::kCancelled; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsDataLoss() const { return code_ == StatusCode::kDataLoss; }
  bool IsOverloaded() const { return code_ == StatusCode::kOverloaded; }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }
  bool IsRetriable() const { return ::m3r::IsRetriable(code_); }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// A value or an error. Minimal StatusOr-style wrapper.
template <typename T>
class Result {
 public:
  /*implicit*/ Result(T value) : value_(std::move(value)) {}
  /*implicit*/ Result(Status status) : status_(std::move(status)) {}

  bool ok() const { return status_.ok() && value_.has_value(); }
  const Status& status() const { return status_; }

  /// Precondition: ok().
  T& value() { return *value_; }
  const T& value() const { return *value_; }
  T&& take() { return std::move(*value_); }

  T* operator->() { return &*value_; }
  const T* operator->() const { return &*value_; }
  T& operator*() { return *value_; }
  const T& operator*() const { return *value_; }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace m3r

/// Propagates a non-OK Status from the current function.
#define M3R_RETURN_NOT_OK(expr)              \
  do {                                       \
    ::m3r::Status _st = (expr);              \
    if (!_st.ok()) return _st;               \
  } while (0)

/// Assigns the value of a Result<T> expression or propagates its Status.
#define M3R_ASSIGN_OR_RETURN(lhs, expr)      \
  auto M3R_CONCAT_(_res_, __LINE__) = (expr);                \
  if (!M3R_CONCAT_(_res_, __LINE__).ok())                    \
    return M3R_CONCAT_(_res_, __LINE__).status();            \
  lhs = M3R_CONCAT_(_res_, __LINE__).take()

#define M3R_CONCAT_INNER_(a, b) a##b
#define M3R_CONCAT_(a, b) M3R_CONCAT_INNER_(a, b)

#endif  // M3R_COMMON_STATUS_H_
