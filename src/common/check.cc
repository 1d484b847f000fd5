#include "common/check.h"

#include <atomic>

namespace urcl {
namespace internal {

void CheckFailed(const char* file, int line, const std::string& message) {
  std::cerr << "[URCL FATAL] " << file << ":" << line << ": " << message << std::endl;
  // Re-entrancy guard: a hook that itself trips a check must not recurse.
  static std::atomic<bool> in_hook{false};
  if (CheckFailureHook hook = CheckFailureHookSlot().load(std::memory_order_acquire)) {
    if (!in_hook.exchange(true, std::memory_order_acq_rel)) {
      hook(file, line, message.c_str());
    }
  }
  std::abort();
}

}  // namespace internal

namespace check {
namespace {

std::atomic<bool>& GraphChecksFlag() {
  static std::atomic<bool> enabled{IntegrityChecksDefault()};
  return enabled;
}

}  // namespace

bool IntegrityChecksDefault() {
  // lint:allow(banned-call/getenv) URCL_CHECK, the one integrity switch.
  if (const char* env = std::getenv("URCL_CHECK")) return ParseEnabledValue(env);
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

bool ParseEnabledValue(const char* value) {
  if (value == nullptr) return true;
  const std::string v(value);
  return !(v == "0" || v == "off" || v == "false" || v == "OFF");
}

bool GraphChecksEnabled() { return GraphChecksFlag().load(std::memory_order_relaxed); }

void SetGraphChecksEnabled(bool enabled) {
  GraphChecksFlag().store(enabled, std::memory_order_relaxed);
}

}  // namespace check
}  // namespace urcl
