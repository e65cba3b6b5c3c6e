#ifndef STHIST_CORE_STATUS_H_
#define STHIST_CORE_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "core/check.h"

/// \file
/// Lightweight error propagation for untrusted-input boundaries.
///
/// The library does not use exceptions. Internal invariant violations are
/// programming errors and abort via STHIST_CHECK (core/check.h). Everything
/// that can fail because of *input the library does not control* — files,
/// CLI flags, query feedback from an external engine — instead returns a
/// `Status` (or `StatusOr<T>` when there is a value to hand back) carrying a
/// machine-readable code and a human-readable reason.

namespace sthist {

/// Coarse error category, stable across messages. Mirrors the small subset
/// of canonical codes the library needs.
enum class StatusCode {
  kOk = 0,
  /// Malformed input (parse errors, NaN coordinates, inverted boxes).
  kInvalidArgument,
  /// A named resource (file, dataset, subcommand) does not exist.
  kNotFound,
  /// An I/O operation failed after the resource was found.
  kIoError,
  /// Input was well-formed but violates a documented limit (budget, size).
  kOutOfRange,
  /// The operation cannot proceed because the component is shutting down or
  /// otherwise not serving (e.g. AddTenant on a stopped ServiceFleet).
  kUnavailable,
};

/// Human-readable name of a code, e.g. "INVALID_ARGUMENT".
const char* StatusCodeName(StatusCode code);

/// An error code plus message. Cheap to move, comparable against OK.
class Status {
 public:
  /// Constructs OK.
  Status() = default;

  /// Constructs a status with `code` and explanatory `message`. Passing
  /// kOk here is a programming error — use the default constructor.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    STHIST_CHECK(code != StatusCode::kOk);
  }

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  static Status IoError(std::string message) {
    return Status(StatusCode::kIoError, std::move(message));
  }
  static Status OutOfRange(std::string message) {
    return Status(StatusCode::kOutOfRange, std::move(message));
  }
  static Status Unavailable(std::string message) {
    return Status(StatusCode::kUnavailable, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CODE>: <message>", for logs and stderr.
  std::string ToString() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Builds a Status with a printf-formatted message.
Status StatusF(StatusCode code, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

/// Either a value or an error Status. Accessing the value of an error is a
/// programming error and aborts; check ok() first.
template <typename T>
class StatusOr {
 public:
  /// Implicit from a value: `return dataset;`.
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT

  /// Implicit from an error status: `return Status::InvalidArgument(...)`.
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    STHIST_CHECK_MSG(!status_.ok(),
                     "StatusOr constructed from OK status without a value");
  }

  bool ok() const { return status_.ok(); }

  /// The error (OK when a value is held).
  const Status& status() const { return status_; }

  /// The held value; requires ok().
  const T& value() const& {
    STHIST_CHECK_MSG(ok(), "StatusOr::value() on error: %s",
                     status_.message().c_str());
    return *value_;
  }
  T& value() & {
    STHIST_CHECK_MSG(ok(), "StatusOr::value() on error: %s",
                     status_.message().c_str());
    return *value_;
  }
  T&& value() && {
    STHIST_CHECK_MSG(ok(), "StatusOr::value() on error: %s",
                     status_.message().c_str());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Early-returns the argument when it is a non-OK Status. Use inside
/// functions that themselves return Status.
#define STHIST_RETURN_IF_ERROR(expr)               \
  do {                                             \
    ::sthist::Status status_macro_result = (expr); \
    if (!status_macro_result.ok()) {               \
      return status_macro_result;                  \
    }                                              \
  } while (0)

}  // namespace sthist

#endif  // STHIST_CORE_STATUS_H_
