// Invariant-checking macros in the style used by database engines: cheap,
// always-on checks that abort with a readable message instead of throwing —
// plus the runtime gate for the optional graph/memory integrity analyses
// (`urcl::check`, see DESIGN.md §9).
#ifndef URCL_COMMON_CHECK_H_
#define URCL_COMMON_CHECK_H_

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace urcl {
namespace internal {

// Terminates the process after printing `message` with source location.
[[noreturn]] void CheckFailed(const char* file, int line, const std::string& message);

// Called (once, best effort) between printing the diagnostic and abort(), so
// the observability layer can flush its flight recorder on a fatal check.
// The hook must be async-signal-tolerant in spirit: no throwing, no further
// URCL_CHECKs on its path. One hook per process (last writer wins). Inline
// (header-only) so src/obs/ can install a hook without linking upward into
// urcl_common — common sits above obs in the layering.
using CheckFailureHook = void (*)(const char* file, int line, const char* message);
inline std::atomic<CheckFailureHook>& CheckFailureHookSlot() {
  static std::atomic<CheckFailureHook> hook{nullptr};
  return hook;
}
inline void SetCheckFailureHook(CheckFailureHook hook) {
  CheckFailureHookSlot().store(hook, std::memory_order_release);
}

// Stream-capture helper so URCL_CHECK can accept `<<`-style payloads.
class CheckMessageBuilder {
 public:
  CheckMessageBuilder(const char* file, int line, const char* condition)
      : file_(file), line_(line) {
    stream_ << "Check failed: " << condition << " ";
  }

  [[noreturn]] ~CheckMessageBuilder() { CheckFailed(file_, line_, stream_.str()); }

  template <typename T>
  CheckMessageBuilder& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace internal

namespace check {

// The initial value of both integrity gates, the graph checks below and the
// buffer pool's poisoning (tensor/pool.h), from the one integrity switch: the
// URCL_CHECK environment variable ("0"/"off"/"false"/"OFF" disable, anything
// else enables); unset means enabled only in debug (!NDEBUG) builds.
bool IntegrityChecksDefault();

// Master switch for the graph-integrity analyses (autograd version-counter
// verification in Backward and the trainer's pre-backward LintGraph pass),
// initially IntegrityChecksDefault(). Reading the gate is one relaxed atomic
// load, so disabled checks cost a predictable branch and nothing else.
bool GraphChecksEnabled();

// Test/tooling override; wins over the environment for the rest of the
// process.
void SetGraphChecksEnabled(bool enabled);

// The URCL_CHECK value parser ("0"/"off"/"false"/"OFF" -> false; anything
// else, and nullptr, -> true).
bool ParseEnabledValue(const char* value);

}  // namespace check
}  // namespace urcl

// Aborts with a diagnostic when `condition` is false. Usable in headers and
// hot paths; the happy path is a single branch.
#define URCL_CHECK(condition)                                                   \
  if (!(condition))                                                             \
  ::urcl::internal::CheckMessageBuilder(__FILE__, __LINE__, #condition)

#define URCL_CHECK_EQ(a, b) URCL_CHECK((a) == (b)) << "(" << (a) << " vs " << (b) << ") "
#define URCL_CHECK_NE(a, b) URCL_CHECK((a) != (b)) << "(" << (a) << " vs " << (b) << ") "
#define URCL_CHECK_LT(a, b) URCL_CHECK((a) < (b)) << "(" << (a) << " vs " << (b) << ") "
#define URCL_CHECK_LE(a, b) URCL_CHECK((a) <= (b)) << "(" << (a) << " vs " << (b) << ") "
#define URCL_CHECK_GT(a, b) URCL_CHECK((a) > (b)) << "(" << (a) << " vs " << (b) << ") "
#define URCL_CHECK_GE(a, b) URCL_CHECK((a) >= (b)) << "(" << (a) << " vs " << (b) << ") "

#endif  // URCL_COMMON_CHECK_H_
