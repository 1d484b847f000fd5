// urcl::serve — the streaming inference service (tentpole of the serving
// layer). A ForecastService owns four things:
//
//   1. Rolling observation windows: one ring buffer per sensor, filled by
//      IngestTick with raw readings that are normalized at ingest time using
//      the training-time MinMaxNormalizer state, so window assembly is a
//      straight copy with no per-query rescaling.
//   2. A ModelHub of hot-swappable immutable weight snapshots with an N-deep
//      rollback history. SnapshotSink() returns a callback for
//      UrclTrainer::SetSnapshotSink: the background training thread publishes
//      checkpoint-format containers, the sink runs them through the admission
//      gate (integrity, parse, weight scan, canary — serve/admission.h) and
//      swaps admitted versions live; rejected publishes are quarantined and
//      the incumbent stays up. Queries pick up the new version lock-free
//      mid-stream.
//   3. A health state machine (serve/health.h): model-error spikes trigger
//      automatic rollback to the last-good version; a stalled tick stream
//      degrades the service, which then answers from a HistoricalAverage
//      fallback (stamped degraded=true) instead of failing closed;
//      EnterLameDuck drains it with typed kUnavailable.
//   4. The query path: Predict answers batched forecast requests from any
//      number of concurrent client threads through a pool of compiled plans
//      that rebind each snapshot's weights, with the tape forward as the
//      only fallback (both bitwise-equal to the training forward), under
//      queue-depth and deadline-aware admission control, urcl.serve.*
//      metrics and trace spans. Every failure is a typed Status; a
//      non-finite value never leaves Predict.
#ifndef URCL_SERVE_SERVICE_H_
#define URCL_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/historical_average.h"
#include "common/thread_annotations.h"
#include "core/predictor.h"
#include "core/urcl.h"
#include "data/normalizer.h"
#include "graph/sensor_network.h"
#include "serve/admission.h"
#include "serve/health.h"
#include "serve/snapshot.h"
#include "tensor/tensor.h"

namespace urcl {
namespace serve {

// Tuning knobs of a ForecastService. Mirrors the UrclConfig::Validate()
// pattern: construct, adjust fields, then Validate() before wiring the
// service (the constructor aborts on an invalid config, so call Validate()
// directly for early human-readable feedback, e.g. from flag parsing).
struct ServiceConfig {
  // Architecture of the models being served; must match the trainer that
  // publishes snapshots (snapshot admission rejects mismatches).
  core::UrclConfig model;

  // Largest batch dimension accepted by one Predict call; bigger requests
  // are rejected with an error Status instead of monopolizing the executor.
  int64_t max_batch = 64;

  // Admission-control depth: queries already in flight when a new one
  // arrives beyond this count are shed with a kOverloaded error (counted in
  // urcl.serve.rejected) rather than queued without bound.
  int64_t queue_depth = 256;

  // Whether a published snapshot must also pass the canary gate.
  AdmissionConfig admission;

  // Thresholds of the health state machine (error window, rollback trigger,
  // staleness watchdog).
  HealthConfig health;

  // Previously-live versions retained for rollback (ModelHub history depth;
  // 0 = rollback disabled, an error spike marks the model unusable instead).
  int64_t history_depth = 4;

  // Inference executor (DESIGN.md §12): kPlan answers from a pool of
  // compiled arena programs, one per query shape and concurrent query, that
  // take each snapshot's weights as inputs and so survive hot-swaps; kTape
  // always runs the tape forward. Both produce bitwise-identical forecasts.
  exec::ExecutorMode executor = exec::ExecutorMode::kPlan;

  // Human-readable message per invalid field; empty when usable.
  std::vector<std::string> Validate() const;
};

class ForecastService {
 public:
  // `normalizer` is the training-time scaling state; its per-channel min/max
  // are copied so ingest-time normalization matches data::MinMaxNormalizer::
  // Transform bit for bit. `network` supplies the adjacency handed to every
  // inference call (same matrix the trainer conditions on).
  ForecastService(const ServiceConfig& config, const graph::SensorNetwork& network,
                  const data::MinMaxNormalizer& normalizer);

  // Callback for UrclTrainer::SetSnapshotSink: runs the published container
  // through the admission gate and hot-swaps it into the hub on success.
  // Failures quarantine the snapshot — counted in
  // urcl.serve.snapshots_quarantined, logged to stderr and flight-recorded
  // — and keep the previous version live.
  core::UrclTrainer::SnapshotSink SnapshotSink();

  // Appends one tick of raw sensor readings ([N, C], unnormalized) to every
  // sensor's ring buffer, normalizing on the way in. Thread-safe against
  // concurrent queries (writer lock); ticks are assumed to arrive from one
  // ingestion thread in stream order. Feeds the staleness watchdog; under
  // fault injection ticks may be dropped or duplicated here (chaos harness).
  void IngestTick(const Tensor& observations);

  // True once every ring holds a full window of ticks.
  bool WindowReady() const;
  int64_t ticks_ingested() const;

  // The current normalized rolling window, [1, M, N, C] in chronological
  // order (oldest tick first) — exactly what a model trained on
  // MinMaxNormalizer-scaled data expects.
  Tensor CurrentWindow() const;

  // Forecasts from the service's own rolling window: assembles
  // CurrentWindow() and answers it like Predict. Fails while the window is
  // still filling. The response's `stale` flag reports the staleness
  // watchdog's verdict on the window that answered.
  Status Forecast(int64_t horizon, core::PredictResponse* response) const;

  // Answers a batched forecast query against the current model version.
  // Safe to call from many threads concurrently; the response is stamped
  // with the version/stage of the snapshot that actually served it, so
  // clients observe hot-swaps and rollbacks. Every failure is a typed
  // Status: kOverloaded (queue full), kDeadlineExceeded (budget unmeetable),
  // kUnavailable (lame duck), kInvalidArgument (malformed request),
  // kFailedPrecondition (no snapshot yet), kDataLoss (model produced a
  // non-finite forecast — quarantined, never returned). When the service is
  // DEGRADED it answers from the HistoricalAverage fallback with
  // degraded=true instead of failing.
  Status Predict(const core::PredictRequest& request, core::PredictResponse* response) const;

  ModelHub& hub() { return hub_; }
  const ModelHub& hub() const { return hub_; }
  const ServiceConfig& config() const { return config_; }

  // Current verdict of the health state machine.
  HealthState health_state() const;
  HealthMonitor& health() { return health_; }

  // Begins terminal drain: every subsequent query is shed with kUnavailable.
  // Records a lame_duck flight event and dumps the flight recorder (the
  // blackbox must be on disk before the process drains away).
  void EnterLameDuck();

  // Queries answered / shed since construction.
  int64_t served_queries() const { return served_.load(std::memory_order_relaxed); }
  int64_t rejected_queries() const { return rejected_.load(std::memory_order_relaxed); }

  // Failure-model counters (also exported as urcl.serve.* metrics).
  int64_t quarantined_snapshots() const {
    return quarantined_.load(std::memory_order_relaxed);
  }
  int64_t deadline_shed() const { return deadline_shed_.load(std::memory_order_relaxed); }
  int64_t degraded_queries() const { return degraded_.load(std::memory_order_relaxed); }
  int64_t nonfinite_outputs() const { return nonfinite_.load(std::memory_order_relaxed); }
  int64_t rollback_count() const { return hub_.rollback_count(); }

  // Inference plan captures since construction (also the
  // urcl.serve.plan_compiles counter). Advances when a plan-mode query finds
  // no idle plan for its shape, so it is bounded by query shapes times peak
  // concurrent queries and does not grow with hot-swaps.
  int64_t plan_compiles() const { return serve_plans_.captures(); }

 private:
  // Answers `inputs` with `snapshot`'s weights through the serving plan cache
  // (exec::PlanCache::Run: an idle compiled plan, else the tape forward) and
  // stamps the executor that answered.
  Tensor Forward(const ModelSnapshot& snapshot, const Tensor& inputs,
                 core::AnswerExecutor* executor) const;

  // Health-state change detection for the flight recorder: records a
  // health_transition event when `state` differs from the last state this
  // service observed, and auto-dumps on the transition into LAME_DUCK.
  void NoteHealthState(HealthState state) const;

  // Serializes `observed_version`'s removal: rolls the hub back to the
  // previous version (resetting the health window) or, when no history
  // remains, marks the model path unusable. Concurrent callers that lost the
  // race (the hub moved past `observed_version` already) do nothing.
  void AttemptRollback(int64_t observed_version) const;

  // Answers `request` from the HistoricalAverage fallback, stamping
  // degraded=true / version 0 / stage -1.
  Status AnswerDegraded(const core::PredictRequest& request,
                        core::PredictResponse* response) const;

  // Deadline admission: estimated time to answer, from the EWMA of recent
  // model-path latencies scaled by the queue position ahead of this query.
  int64_t EstimateLatencyNs(int64_t queue_position) const;

  ServiceConfig config_;
  int64_t window_steps_;
  int64_t num_nodes_;
  int64_t num_channels_;
  Tensor adjacency_;  // dense [N, N], shared by every inference call
  std::vector<float> channel_min_;
  std::vector<float> channel_max_;

  // Rolling window storage: ring of `window_steps_` ticks, each tick a
  // contiguous [N, C] block, guarded by a reader/writer lock (ingest writes,
  // query threads read).
  mutable SharedMutex window_mu_;
  // [window_steps_, N, C], slot-indexed ring storage.
  std::vector<float> ring_ URCL_GUARDED_BY(window_mu_);
  // Ring slot the next tick lands in.
  int64_t next_slot_ URCL_GUARDED_BY(window_mu_) = 0;
  // Total ticks ingested.
  int64_t ticks_ URCL_GUARDED_BY(window_mu_) = 0;

  mutable ModelHub hub_;
  mutable HealthMonitor health_;
  baselines::HistoricalAverage fallback_;
  // Serializes rollback decisions (never on the success path). Guards no
  // members: the hub's state is its own; this capability only makes the
  // observe-decide-rollback sequence in AttemptRollback atomic.
  mutable Mutex rollback_mu_;

  // Compiled-executor state: idle plans keyed by the shapes of the query and
  // the weights. A query takes a plan out, runs it with no lock held and
  // hands it back. Plans take the weights as inputs, so they serve every
  // snapshot and survive hot-swaps.
  mutable exec::PlanCache serve_plans_;

  // Last health state this service observed (int of HealthState), for flight
  // recorder transition events. Evaluate() computes state on the fly; this
  // tracks edges without widening the monitor's API.
  mutable std::atomic<int> observed_health_{0};

  mutable std::atomic<int64_t> in_flight_{0};
  mutable std::atomic<int64_t> served_{0};
  mutable std::atomic<int64_t> rejected_{0};
  mutable std::atomic<int64_t> quarantined_{0};
  mutable std::atomic<int64_t> deadline_shed_{0};
  mutable std::atomic<int64_t> degraded_{0};
  mutable std::atomic<int64_t> nonfinite_{0};
  // EWMA of model-path latency in ns; 0 = no sample yet.
  mutable std::atomic<int64_t> latency_ewma_ns_{0};
};

}  // namespace serve
}  // namespace urcl

#endif  // URCL_SERVE_SERVICE_H_
