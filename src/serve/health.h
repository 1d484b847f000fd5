// Serving health state machine (DESIGN.md §11). The ForecastService owns one
// HealthMonitor and feeds it two signal families:
//
//   - model errors: non-finite forecasts / executor failures on the live
//     version, counted over a tumbling query window — a spike triggers
//     automatic rollback (or, when no older version exists, DEGRADED);
//   - ingestion staleness: a watchdog on the rolling window — no tick for
//     `staleness_ns` flags windows stale and degrades the service.
//
// States: HEALTHY (answer from the model) → DEGRADED (answer from the
// fallback HistoricalAverage baseline, stamped degraded=true). DEGRADED is
// recoverable — a freshly admitted snapshot, a successful rollback or a
// resumed tick stream returns the service to HEALTHY. LAME_DUCK (terminal
// drain: every query is shed with kUnavailable) is entered only through
// EnterLameDuck and never left.
#ifndef URCL_SERVE_HEALTH_H_
#define URCL_SERVE_HEALTH_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace urcl {
namespace serve {

enum class HealthState {
  kHealthy = 0,
  kDegraded = 1,
  kLameDuck = 2,
};

inline const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy: return "HEALTHY";
    case HealthState::kDegraded: return "DEGRADED";
    case HealthState::kLameDuck: return "LAME_DUCK";
  }
  return "UNKNOWN";
}

// Thresholds of the health state machine.
struct HealthConfig {
  // Tumbling window length (in model-path queries) over which model errors
  // are counted. The window resets on every swap/rollback so a fresh version
  // starts with a clean slate.
  int64_t error_window = 64;

  // Model errors (non-finite forecasts) within one window that trigger an
  // automatic rollback to the previous live version.
  int64_t rollback_errors = 3;

  // No tick ingested for this many monotonic-clock nanoseconds => windows
  // are stale and the service is DEGRADED until the stream resumes.
  // 0 = watchdog off.
  int64_t staleness_ns = 0;

  // Human-readable message per invalid field; empty when usable.
  std::vector<std::string> Validate() const;
};

// Tracks the signals above. All methods are thread-safe; counters are
// relaxed atomics (the window accounting is approximate under contention by
// design — a rollback trigger a few queries early or late is fine).
class HealthMonitor {
 public:
  explicit HealthMonitor(const HealthConfig& config);

  // Records the outcome of one model-path query. Returns true when the error
  // count within the current window has just crossed the rollback threshold
  // (the caller should attempt a rollback; dedup is the caller's problem).
  bool RecordModelResult(bool ok);

  // A new version went live (admitted publish or rollback): clean slate.
  void OnSwap();

  // A tick reached the rolling window.
  void OnTick(int64_t now_ns) { last_tick_ns_.store(now_ns, std::memory_order_relaxed); }

  // No older version was available to roll back to: the model path is
  // unusable until the next admitted snapshot.
  void MarkModelUnusable() { model_unusable_.store(true, std::memory_order_relaxed); }
  bool model_unusable() const { return model_unusable_.load(std::memory_order_relaxed); }

  // Terminal drain: every subsequent Evaluate returns kLameDuck.
  void EnterLameDuck() { lame_duck_.store(true, std::memory_order_relaxed); }

  // True when the rolling window has seen a tick but none within the
  // staleness threshold.
  bool WindowStale(int64_t now_ns) const;

  // Current state from the recorded signals.
  HealthState Evaluate(int64_t now_ns) const;

  int64_t window_errors() const { return window_errors_.load(std::memory_order_relaxed); }

 private:
  HealthConfig config_;
  std::atomic<int64_t> window_queries_{0};
  std::atomic<int64_t> window_errors_{0};
  std::atomic<int64_t> last_tick_ns_{-1};   // -1 = no tick yet
  std::atomic<bool> model_unusable_{false};
  std::atomic<bool> lame_duck_{false};
};

}  // namespace serve
}  // namespace urcl

#endif  // URCL_SERVE_HEALTH_H_
