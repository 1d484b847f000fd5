#include "serve/health.h"

namespace urcl {
namespace serve {

std::vector<std::string> HealthConfig::Validate() const {
  std::vector<std::string> errors;
  if (error_window < 1) errors.push_back("error_window must be >= 1");
  if (rollback_errors < 1) errors.push_back("rollback_errors must be >= 1");
  if (rollback_errors > error_window) {
    errors.push_back("rollback_errors must fit inside error_window");
  }
  if (staleness_ns < 0) errors.push_back("staleness_ns must be >= 0 (0 = off)");
  return errors;
}

HealthMonitor::HealthMonitor(const HealthConfig& config) : config_(config) {}

bool HealthMonitor::RecordModelResult(bool ok) {
  const int64_t queries = window_queries_.fetch_add(1, std::memory_order_relaxed) + 1;
  int64_t errors = 0;
  if (!ok) errors = window_errors_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (queries >= config_.error_window) {
    // Tumble: approximate under contention (several threads may tumble at
    // once), which only makes the window slightly shorter — safe direction.
    window_queries_.store(0, std::memory_order_relaxed);
    window_errors_.store(0, std::memory_order_relaxed);
  }
  return !ok && errors == config_.rollback_errors;
}

void HealthMonitor::OnSwap() {
  window_queries_.store(0, std::memory_order_relaxed);
  window_errors_.store(0, std::memory_order_relaxed);
  model_unusable_.store(false, std::memory_order_relaxed);
}

bool HealthMonitor::WindowStale(int64_t now_ns) const {
  if (config_.staleness_ns <= 0) return false;
  const int64_t last = last_tick_ns_.load(std::memory_order_relaxed);
  return last >= 0 && now_ns - last > config_.staleness_ns;
}

HealthState HealthMonitor::Evaluate(int64_t now_ns) const {
  if (lame_duck_.load(std::memory_order_relaxed)) return HealthState::kLameDuck;
  if (model_unusable_.load(std::memory_order_relaxed)) return HealthState::kDegraded;
  if (WindowStale(now_ns)) return HealthState::kDegraded;
  return HealthState::kHealthy;
}

}  // namespace serve
}  // namespace urcl
