// Lightweight ok/error result for *recoverable* failures — corrupt or
// truncated input, missing files, checkpoint rejection, shed queries — where
// the caller can fall back (e.g. to an older checkpoint, a retry with
// backoff, or a degraded-mode answer) or surface the message to the user.
// URCL_CHECK remains the tool for programming-error invariants that should
// abort; Status is for conditions a correct program must survive.
//
// Every failure carries a StatusCode so callers can branch on *kind* without
// parsing messages: the serving layer sheds overload as kOverloaded (retry
// with backoff), missed deadlines as kDeadlineExceeded (drop or re-budget),
// corrupt/non-finite data as kDataLoss (quarantine), and a draining service
// as kUnavailable (fail over). The class is [[nodiscard]]: silently dropping
// a Status is a compile-time warning (an error under URCL_WERROR), and the
// repo lint additionally bans statement-position discards in src/.
#ifndef URCL_COMMON_STATUS_H_
#define URCL_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace urcl {

enum class StatusCode {
  kOk = 0,
  kUnknown,             // untyped legacy Error(); treat as non-retryable
  kInvalidArgument,     // malformed request/input; retrying cannot help
  kFailedPrecondition,  // not ready yet (no snapshot, window still filling)
  kUnavailable,         // service draining (lame duck); fail over elsewhere
  kOverloaded,          // admission shed; retry with jittered backoff
  kDeadlineExceeded,    // budget cannot be met; drop or enlarge the deadline
  kDataLoss,            // corrupt bytes or non-finite values; quarantined
};

inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kUnknown: return "UNKNOWN";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kOverloaded: return "OVERLOADED";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kDataLoss: return "DATA_LOSS";
  }
  return "UNKNOWN";
}

class [[nodiscard]] Status {
 public:
  Status() = default;  // ok

  static Status Ok() { return Status(); }
  static Status Error(std::string message) {
    return Status(StatusCode::kUnknown, std::move(message));
  }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  static Status Unavailable(std::string message) {
    return Status(StatusCode::kUnavailable, std::move(message));
  }
  static Status Overloaded(std::string message) {
    return Status(StatusCode::kOverloaded, std::move(message));
  }
  static Status DeadlineExceeded(std::string message) {
    return Status(StatusCode::kDeadlineExceeded, std::move(message));
  }
  static Status DataLoss(std::string message) {
    return Status(StatusCode::kDataLoss, std::move(message));
  }

  // This status with `context` prepended to its message; Ok stays Ok.
  Status Annotate(const std::string& context) const {
    return ok() ? *this : Status(code_, context + message_);
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<CODE>: <message>"; for logs and test diagnostics.
  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(StatusCodeName(code_)) + ": " + message_;
  }

 private:
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

}  // namespace urcl

#endif  // URCL_COMMON_STATUS_H_
