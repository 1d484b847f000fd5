#include "serve/service.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/fault_injector.h"
#include "common/stopwatch.h"
#include "obs/facade.h"

namespace urcl {
namespace serve {
namespace {

// Decrements the in-flight admission counter when a query leaves the
// service, on every return path.
class InFlightGuard {
 public:
  explicit InFlightGuard(std::atomic<int64_t>& counter) : counter_(counter) {}
  ~InFlightGuard() { counter_.fetch_sub(1, std::memory_order_relaxed); }
  InFlightGuard(const InFlightGuard&) = delete;
  InFlightGuard& operator=(const InFlightGuard&) = delete;

 private:
  std::atomic<int64_t>& counter_;
};

// Cached registry handles (obs/facade.h): the per-query cost of a bump is
// one relaxed flag load + one striped add — no mutex-guarded name lookup on
// the hot path. Leaked with the process like the registry itself.
struct ServeMetrics {
  obs::CounterHandle queries{"urcl.serve.queries"};
  obs::CounterHandle ticks{"urcl.serve.ticks"};
  obs::CounterHandle rejected{"urcl.serve.rejected"};
  obs::CounterHandle deadline_shed{"urcl.serve.deadline_shed"};
  obs::CounterHandle degraded{"urcl.serve.degraded"};
  obs::CounterHandle nonfinite_outputs{"urcl.serve.nonfinite_outputs"};
  obs::CounterHandle rollbacks{"urcl.serve.rollbacks"};
  obs::CounterHandle plan_compiles{"urcl.serve.plan_compiles"};
  obs::CounterHandle snapshots{"urcl.serve.snapshots"};
  obs::CounterHandle snapshots_quarantined{"urcl.serve.snapshots_quarantined"};
  obs::GaugeHandle model_version{"urcl.serve.model_version"};
  obs::GaugeHandle health_state{"urcl.serve.health_state"};
  obs::HistogramHandle latency_ns{"urcl.serve.latency_ns",
                                  obs::ExponentialBuckets(1e3, 4, 12)};
};

ServeMetrics& Metrics() {
  static ServeMetrics* metrics = new ServeMetrics();
  return *metrics;
}

}  // namespace

std::vector<std::string> ServiceConfig::Validate() const {
  std::vector<std::string> errors;
  for (const std::string& error : model.Validate()) errors.push_back("model: " + error);
  if (max_batch < 1) errors.push_back("max_batch must be >= 1");
  if (queue_depth < 1) errors.push_back("queue_depth must be >= 1");
  for (const std::string& error : health.Validate()) errors.push_back("health: " + error);
  if (history_depth < 0) errors.push_back("history_depth must be >= 0 (0 = rollback off)");
  return errors;
}

ForecastService::ForecastService(const ServiceConfig& config,
                                 const graph::SensorNetwork& network,
                                 const data::MinMaxNormalizer& normalizer)
    : config_(config),
      window_steps_(config.model.encoder.input_steps),
      num_nodes_(network.num_nodes()),
      num_channels_(normalizer.num_channels()),
      adjacency_(network.AdjacencyMatrix()),
      hub_(config.history_depth),
      health_(config.health),
      fallback_(config.model.output_steps, /*target_channel=*/0),
      serve_plans_("serve", config.executor) {
  const std::vector<std::string> errors = config.Validate();
  URCL_CHECK(errors.empty()) << "invalid ServiceConfig: " << errors.front();
  URCL_CHECK_EQ(num_nodes_, config.model.encoder.num_nodes)
      << "sensor network does not match the model's node count";
  URCL_CHECK_EQ(num_channels_, config.model.encoder.in_channels)
      << "normalizer channel count does not match the model's input channels";
  channel_min_.resize(static_cast<size_t>(num_channels_));
  channel_max_.resize(static_cast<size_t>(num_channels_));
  for (int64_t c = 0; c < num_channels_; ++c) {
    channel_min_[static_cast<size_t>(c)] = normalizer.min(c);
    channel_max_[static_cast<size_t>(c)] = normalizer.max(c);
  }
  ring_.assign(static_cast<size_t>(window_steps_ * num_nodes_ * num_channels_), 0.0f);
}

core::UrclTrainer::SnapshotSink ForecastService::SnapshotSink() {
  return [this](const checkpoint::Container& container) {
    URCL_TRACE_SCOPE("serve.ingest_snapshot");
    // Canary input: the live rolling window when ready, else an all-zeros
    // window (a valid point in normalized space — cold-start canaries still
    // catch runaway weights).
    Tensor probe = WindowReady()
                       ? CurrentWindow()
                       : Tensor(Shape{1, window_steps_, num_nodes_, num_channels_});

    // Serialize + reparse so the checkpoint CRC/section checks run even for
    // in-memory publishes. This is also the chaos harness's corruption point:
    // serve_bitflip faults flip one byte "in transit".
    std::string bytes = container.SerializeToString();
    auto& injector = fault::FaultInjector::Instance();
    if (!bytes.empty() && injector.NextSnapshotBitflipped()) {
      bytes[injector.PickByte(bytes.size())] ^= 0x04;
    }
    std::shared_ptr<const ModelSnapshot> snapshot;
    const Status status = AdmitSnapshotBytes(bytes, config_.model, config_.admission, probe,
                                             adjacency_, &snapshot);

    if (!status.ok()) {
      // Quarantine: count, log, and keep the incumbent version live. A bad
      // publish must never take the service down.
      quarantined_.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr, "[urcl.serve] snapshot quarantined: %s\n",
                   status.ToString().c_str());
      Metrics().snapshots_quarantined.Add();
      obs::RecordFlightEvent(obs::FlightEventType::kSnapshotQuarantine, /*a=*/-1,
                             /*b=*/0, status.message().c_str());
      return;
    }

    const int64_t version = snapshot->version;
    obs::RecordFlightEvent(obs::FlightEventType::kSnapshotAdmit, version);
    hub_.Publish(std::move(snapshot));
    health_.OnSwap();
    obs::RecordFlightEvent(obs::FlightEventType::kHotSwap, version);
    Metrics().snapshots.Add();
    Metrics().model_version.Set(static_cast<double>(version));
  };
}

void ForecastService::IngestTick(const Tensor& observations) {
  URCL_TRACE_SCOPE("serve.ingest_tick");
  URCL_CHECK_EQ(observations.rank(), 2) << "tick must be [N, C]";
  URCL_CHECK_EQ(observations.dim(0), num_nodes_);
  URCL_CHECK_EQ(observations.dim(1), num_channels_);

  // Chaos harness: a dropped tick never reaches the ring (and never feeds
  // the staleness watchdog); a duplicated tick is written twice, as a
  // re-delivered message from an at-least-once transport would be.
  auto& injector = fault::FaultInjector::Instance();
  if (injector.NextTickDropped()) return;
  const int64_t writes = injector.NextTickDuplicated() ? 2 : 1;

  const float* raw = observations.data();
  const int64_t tick_size = num_nodes_ * num_channels_;
  {
    WriterMutexLock lock(window_mu_);
    for (int64_t w = 0; w < writes; ++w) {
      float* slot = ring_.data() + next_slot_ * tick_size;
      for (int64_t i = 0; i < tick_size; ++i) {
        // Same expression as MinMaxNormalizer::Transform, so windows assembled
        // here are bitwise-identical to training-time normalized inputs.
        const size_t c = static_cast<size_t>(i % num_channels_);
        slot[i] = (raw[i] - channel_min_[c]) / (channel_max_[c] - channel_min_[c]);
      }
      next_slot_ = (next_slot_ + 1) % window_steps_;
      ++ticks_;
    }
  }
  health_.OnTick(MonotonicNowNs());
  Metrics().ticks.Add();
}

bool ForecastService::WindowReady() const {
  ReaderMutexLock lock(window_mu_);
  return ticks_ >= window_steps_;
}

int64_t ForecastService::ticks_ingested() const {
  ReaderMutexLock lock(window_mu_);
  return ticks_;
}

Tensor ForecastService::CurrentWindow() const {
  Tensor window(Shape{1, window_steps_, num_nodes_, num_channels_});
  float* dst = window.mutable_data();
  const int64_t tick_size = num_nodes_ * num_channels_;
  ReaderMutexLock lock(window_mu_);
  URCL_CHECK_GE(ticks_, window_steps_) << "rolling window is still filling";
  // Oldest tick lives in the slot the next write would overwrite.
  for (int64_t t = 0; t < window_steps_; ++t) {
    const int64_t slot = (next_slot_ + t) % window_steps_;
    const float* src = ring_.data() + slot * tick_size;
    float* out = dst + t * tick_size;
    for (int64_t i = 0; i < tick_size; ++i) out[i] = src[i];
  }
  return window;
}

Status ForecastService::Forecast(int64_t horizon, core::PredictResponse* response) const {
  if (!WindowReady()) {
    return Status::FailedPrecondition(
        "rolling window still filling: " + std::to_string(ticks_ingested()) + "/" +
        std::to_string(window_steps_) + " ticks");
  }
  core::PredictRequest request;
  request.inputs = CurrentWindow();
  request.horizon = horizon;
  return Predict(request, response);
}

HealthState ForecastService::health_state() const {
  return health_.Evaluate(MonotonicNowNs());
}

Tensor ForecastService::Forward(const ModelSnapshot& snapshot, const Tensor& inputs,
                                core::AnswerExecutor* executor) const {
  // Plan inputs are the query and then the snapshot's weights, all rebound
  // by position on every run, so one plan serves every snapshot.
  std::vector<Tensor> plan_inputs{inputs};
  for (const autograd::Variable& param : snapshot.model->Parameters()) {
    plan_inputs.push_back(param.value());
  }
  const exec::PlanRun run = serve_plans_.Run(
      plan_inputs,
      [&] {
        return snapshot.model->Forward(autograd::Variable(inputs, /*requires_grad=*/false),
                                       adjacency_);
      },
      /*with_backward=*/false, snapshot.version, /*event_b=*/0);
  if (run.captured()) Metrics().plan_compiles.Add();
  *executor = run.compiled() ? core::AnswerExecutor::kPlan : core::AnswerExecutor::kTape;
  // Clone a plan's answer: the plan owns (and its next run overwrites) that
  // storage, while the response outlives this call.
  return run.compiled() ? run.value().Clone() : run.value();
}

void ForecastService::AttemptRollback(int64_t observed_version) const {
  MutexLock lock(rollback_mu_);
  const std::shared_ptr<const ModelSnapshot> current = hub_.Current();
  // Lost the race: another thread already rolled back (or the trainer
  // published past the bad version). Nothing to do.
  if (current == nullptr || current->version != observed_version) return;

  const std::shared_ptr<const ModelSnapshot> restored = hub_.RollBack();
  if (restored != nullptr) {
    std::fprintf(stderr,
                 "[urcl.serve] error spike on snapshot v%lld: rolled back to v%lld\n",
                 static_cast<long long>(observed_version),
                 static_cast<long long>(restored->version));
    health_.OnSwap();
    Metrics().rollbacks.Add();
    Metrics().model_version.Set(static_cast<double>(restored->version));
    // The recording thread is the query that crossed the error threshold, so
    // the event carries that request's trace ID — the dump links the
    // rollback to the queries that triggered it.
    obs::RecordFlightEvent(obs::FlightEventType::kRollback, observed_version,
                           restored->version, "error spike");
  } else {
    // No older version to fall back on: the model path is unusable until the
    // trainer publishes a snapshot that passes admission.
    std::fprintf(stderr,
                 "[urcl.serve] error spike on snapshot v%lld with empty history: "
                 "degrading to fallback\n",
                 static_cast<long long>(observed_version));
    health_.MarkModelUnusable();
    obs::RecordFlightEvent(obs::FlightEventType::kRollback, observed_version,
                           /*b=*/-1, "history empty: degraded");
  }
  // Rollback is one of the blackbox's auto-dump incidents: flush the event
  // history next to the process so forensics survive whatever happens next.
  obs::FlightRecorder::Get().AutoDump("rollback");
}

void ForecastService::EnterLameDuck() {
  obs::RecordFlightEvent(obs::FlightEventType::kLameDuck);
  health_.EnterLameDuck();
  NoteHealthState(HealthState::kLameDuck);
}

void ForecastService::NoteHealthState(HealthState state) const {
  const int next = static_cast<int>(state);
  int prev = observed_health_.load(std::memory_order_relaxed);
  if (prev == next) return;
  // One transition event per edge even under concurrent queries; losers of
  // the exchange saw an intermediate state someone else already recorded.
  if (!observed_health_.compare_exchange_strong(prev, next, std::memory_order_relaxed)) {
    return;
  }
  obs::RecordFlightEvent(obs::FlightEventType::kHealthTransition, prev, next,
                         HealthStateName(state));
  Metrics().health_state.Set(static_cast<double>(next));
  if (state == HealthState::kLameDuck) {
    obs::FlightRecorder::Get().AutoDump("lame_duck");
  }
}

Status ForecastService::AnswerDegraded(const core::PredictRequest& request,
                                       core::PredictResponse* response) const {
  URCL_TRACE_SCOPE("serve.predict_degraded");
  const Status status = fallback_.Predict(request, response);
  if (!status.ok()) return status;
  // Belt and braces: the no-non-finite-output invariant holds on every path.
  if (!response->predictions.AllFinite()) {
    response->predictions = Tensor();
    return Status::DataLoss("fallback produced a non-finite forecast");
  }
  response->model_version = 0;  // not a trained-model answer
  response->stage = -1;
  response->degraded = true;
  response->executor = core::AnswerExecutor::kFallback;
  degraded_.fetch_add(1, std::memory_order_relaxed);
  served_.fetch_add(1, std::memory_order_relaxed);
  Metrics().degraded.Add();
  return Status::Ok();
}

int64_t ForecastService::EstimateLatencyNs(int64_t queue_position) const {
  const int64_t ewma = latency_ewma_ns_.load(std::memory_order_relaxed);
  if (ewma <= 0) return 0;  // no sample yet: admit optimistically
  return ewma * (queue_position + 1);
}

Status ForecastService::Predict(const core::PredictRequest& request,
                                core::PredictResponse* response) const {
  // Request-scoped causal trace: honor a caller-supplied ID, mint one
  // otherwise. While the flow is bound, every span below and every flight
  // event this query triggers (shed, quarantine, rollback) carries the ID.
  const uint64_t trace_id =
      request.trace_id != 0 ? request.trace_id : obs::MintTraceId();
  obs::TraceFlow flow(trace_id);
  URCL_TRACE_SCOPE("serve.predict");
  Metrics().queries.Add();
  if (response == nullptr) return Status::InvalidArgument("Predict: null response");
  response->trace_id = trace_id;

  const int64_t now_ns = MonotonicNowNs();
  const HealthState state = health_.Evaluate(now_ns);
  NoteHealthState(state);
  Metrics().health_state.Set(static_cast<double>(static_cast<int>(state)));
  response->health_state = static_cast<int32_t>(state);
  if (state == HealthState::kLameDuck) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    Metrics().rejected.Add();
    return Status::Unavailable("service is draining (LAME_DUCK); retry against a peer");
  }

  int64_t queue_position = 0;
  {
    URCL_TRACE_SCOPE("serve.admit");
    // Admission control: shed load beyond queue_depth instead of queueing
    // without bound (the caller decides whether to retry).
    queue_position = in_flight_.fetch_add(1, std::memory_order_relaxed);
    if (queue_position >= config_.queue_depth) {
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
      rejected_.fetch_add(1, std::memory_order_relaxed);
      Metrics().rejected.Add();
      return Status::Overloaded("service overloaded: queue_depth " +
                                std::to_string(config_.queue_depth) +
                                " queries already in flight");
    }
  }
  InFlightGuard guard(in_flight_);

  {
    URCL_TRACE_SCOPE("serve.validate");
    if (request.inputs.rank() != 4) {
      return Status::InvalidArgument("Predict: inputs must be [B, M, N, C], got rank " +
                                     std::to_string(request.inputs.rank()));
    }
    if (request.inputs.dim(0) < 1 || request.inputs.dim(0) > config_.max_batch) {
      return Status::InvalidArgument("Predict: batch " + std::to_string(request.inputs.dim(0)) +
                                     " is outside [1, max_batch " +
                                     std::to_string(config_.max_batch) + "]");
    }
    // Any other window length, node count or channel count would abort the
    // encoder.
    const core::BackboneConfig& encoder = config_.model.encoder;
    const int64_t expected[] = {encoder.input_steps, encoder.num_nodes, encoder.in_channels};
    const char* const names[] = {"window length M", "node count N", "channel count C"};
    for (int axis = 1; axis <= 3; ++axis) {
      if (request.inputs.dim(axis) != expected[axis - 1]) {
        return Status::InvalidArgument(
            std::string("Predict: ") + names[axis - 1] + " is " +
            std::to_string(request.inputs.dim(axis)) + " but the model expects " +
            std::to_string(expected[axis - 1]));
      }
    }
    // A client sending NaN/Inf observations is a malformed request, not a model
    // failure — it must not count against the live version's error window.
    if (!request.inputs.AllFinite()) {
      return Status::InvalidArgument("Predict: inputs hold non-finite values");
    }
  }

  // Deadline-aware admission: when the EWMA of recent model-path latencies
  // says this query cannot be answered inside its budget (given the queue
  // ahead of it), shed it up front instead of answering late.
  if (request.deadline_ns > 0) {
    const int64_t estimate_ns = EstimateLatencyNs(queue_position);
    if (estimate_ns > request.deadline_ns) {
      deadline_shed_.fetch_add(1, std::memory_order_relaxed);
      Metrics().deadline_shed.Add();
      obs::RecordFlightEvent(obs::FlightEventType::kDeadlineShed, estimate_ns,
                             request.deadline_ns);
      return Status::DeadlineExceeded(
          "estimated latency " + std::to_string(estimate_ns) + "ns exceeds deadline " +
          std::to_string(request.deadline_ns) + "ns at queue position " +
          std::to_string(queue_position));
    }
  }

  // Chaos harness: a slowed query stalls here, inside the admission window,
  // so deadline shedding and queue_depth see realistic pressure.
  {
    auto& injector = fault::FaultInjector::Instance();
    if (injector.NextQuerySlowed()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(injector.slow_ms()));
    }
  }

  // Degraded mode: answer from the fallback baseline instead of failing
  // closed. Note a cold service (no snapshot yet) is NOT degraded — it fails
  // with kFailedPrecondition below until the first version is admitted.
  if (state == HealthState::kDegraded) {
    Status status = AnswerDegraded(request, response);
    if (status.ok()) response->stale = health_.WindowStale(now_ns);
    return status;
  }

  const std::shared_ptr<const ModelSnapshot> snapshot = hub_.Current();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition("no model snapshot published yet");
  }

  const Stopwatch stopwatch;
  Tensor raw_predictions;
  core::AnswerExecutor executor = core::AnswerExecutor::kTape;
  {
    URCL_TRACE_SCOPE("serve.exec");
    raw_predictions = Forward(*snapshot, request.inputs, &executor);
  }
  Status status = core::FinishPrediction(request, raw_predictions, response);
  if (!status.ok()) return status;  // request problem (bad horizon), not a model error

  // The hard output invariant: a non-finite forecast is quarantined — it
  // never leaves Predict. It counts against the serving version's error
  // window and, past the threshold, triggers automatic rollback.
  if (!response->predictions.AllFinite()) {
    response->predictions = Tensor();
    nonfinite_.fetch_add(1, std::memory_order_relaxed);
    Metrics().nonfinite_outputs.Add();
    obs::RecordFlightEvent(obs::FlightEventType::kNonFiniteQuarantine, snapshot->version,
                           /*b=*/0, "nonfinite forecast");
    if (health_.RecordModelResult(false)) AttemptRollback(snapshot->version);
    return Status::DataLoss("model v" + std::to_string(snapshot->version) +
                            " produced a non-finite forecast (quarantined)");
  }
  (void)health_.RecordModelResult(true);  // healthy sample; never triggers rollback

  // Stamp the version that actually served the query: across a hot-swap,
  // in-flight queries finish on (and report) the version they acquired.
  // Flags are assigned unconditionally so a reused response struct cannot
  // leak a previous answer's degraded/stale verdicts.
  response->model_version = snapshot->version;
  response->stage = snapshot->stage;
  response->degraded = false;
  response->stale = health_.WindowStale(now_ns);
  response->executor = executor;
  served_.fetch_add(1, std::memory_order_relaxed);

  const int64_t sample_ns = stopwatch.ElapsedNs();
  const int64_t prev_ewma = latency_ewma_ns_.load(std::memory_order_relaxed);
  latency_ewma_ns_.store(prev_ewma <= 0 ? sample_ns : prev_ewma + (sample_ns - prev_ewma) / 8,
                         std::memory_order_relaxed);
  Metrics().latency_ns.Observe(static_cast<double>(sample_ns));
  return Status::Ok();
}

}  // namespace serve
}  // namespace urcl
