#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace pcnn {

/// Typed-error layer for recoverable failures.
///
/// The library throws for programmer errors (null extractor, index out of
/// range on a hand-built core) but *returns* a Status for conditions a
/// robust deployment must survive: corrupt model files, malformed spec
/// strings, a backend failing on one pyramid level, a fault-injected
/// simulator run going off the rails. Callers on the graceful path branch
/// on ok() and degrade (skip the level, drop the window, fall back). Every
/// model load and save (tn, svm, eedn, bundles) has only its Status-
/// returning try* form; a caller that wants an exception calls value().
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,     ///< caller-supplied value failed validation
  kOutOfRange,          ///< index/size outside the valid domain
  kDataLoss,            ///< truncated or corrupt serialized data
  kFailedPrecondition,  ///< operation needs state the object is not in
  kUnavailable,         ///< resource missing (file, backend) or shedding load
  kInternal,            ///< unexpected failure escaping a lower layer
  kDeadlineExceeded,    ///< work abandoned because its deadline passed
};

/// Stable upper-case name ("INVALID_ARGUMENT") for logs and messages.
const char* statusCodeName(StatusCode code);

class Status {
 public:
  /// Default-constructed Status is OK.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status OutOfRange(std::string message) {
    return Status(StatusCode::kOutOfRange, std::move(message));
  }
  static Status DataLoss(std::string message) {
    return Status(StatusCode::kDataLoss, std::move(message));
  }
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  static Status Unavailable(std::string message) {
    return Status(StatusCode::kUnavailable, std::move(message));
  }
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }
  static Status DeadlineExceeded(std::string message) {
    return Status(StatusCode::kDeadlineExceeded, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "DATA_LOSS: loadModel: truncated neuron" (or "OK").
  std::string toString() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Either a value or the Status explaining why there is none. Supports
/// move-only payloads (e.g. std::unique_ptr<tn::Network>). Accessing
/// value() on an error throws std::runtime_error carrying the status text,
/// for callers that treat a failure as fatal.
template <typename T>
class StatusOr {
 public:
  /// Error state; `status` must not be OK.
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(implicit)
    if (status_.ok()) {
      status_ = Status::Internal("StatusOr constructed from OK status");
    }
  }
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(implicit)

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    ensureOk();
    return *value_;
  }
  T& value() & {
    ensureOk();
    return *value_;
  }
  T&& value() && {
    ensureOk();
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void ensureOk() const {
    if (!value_.has_value()) {
      throw std::runtime_error(status_.toString());
    }
  }

  Status status_;
  std::optional<T> value_;
};

}  // namespace pcnn
