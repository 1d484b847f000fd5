// The uniform training/prediction interface shared by URCL and every
// baseline, so the continual-learning protocols (Fig. 5) and evaluation
// harness treat all models identically.
#ifndef URCL_CORE_PREDICTOR_H_
#define URCL_CORE_PREDICTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "data/metrics.h"
#include "data/normalizer.h"

namespace urcl {
namespace core {

// A batched forecast query. `inputs` is the normalized observation window
// [B, M, N, C]; `horizon` selects how many lead steps of the model's output
// window to return (0 = the model's full output window). Requests asking for
// more steps than the model produces are rejected with an error Status.
struct PredictRequest {
  Tensor inputs;
  int64_t horizon = 0;
  // Latency budget in nanoseconds; 0 = no deadline. A query the service
  // estimates it cannot answer within the budget is shed up front with a
  // StatusCode::kDeadlineExceeded Status instead of being answered late.
  int64_t deadline_ns = 0;
  // Request-scoped causal trace ID (obs/trace.h). 0 = the serving layer
  // mints one; callers propagating a distributed trace pass their own. The
  // ID is stamped into the response and onto every span and flight-recorder
  // event the query touches.
  uint64_t trace_id = 0;
};

// Which execution engine produced a response's predictions.
enum class AnswerExecutor : int8_t {
  kUnknown = 0,   // predictor does not distinguish engines
  kTape = 1,      // tape forward: a plan-capturing query, a shape whose
                  // capture failed, or executor = kTape
  kPlan = 2,      // compiled arena plan (DESIGN.md §12)
  kFallback = 3,  // HistoricalAverage degraded-mode answer
};

inline const char* AnswerExecutorName(AnswerExecutor executor) {
  switch (executor) {
    case AnswerExecutor::kUnknown: return "unknown";
    case AnswerExecutor::kTape: return "tape";
    case AnswerExecutor::kPlan: return "plan";
    case AnswerExecutor::kFallback: return "fallback";
  }
  return "unknown";
}

// The answer to a PredictRequest. `predictions` is [B, H, N, 1] in
// normalized space where H is the effective horizon. The version fields
// identify the weights that served the query: `model_version` counts
// published weight snapshots (0 = live/unversioned weights) and `stage` is
// the training stage those weights came from (-1 = unknown / stage-less
// model). The serving layer surfaces both so clients can detect hot-swaps.
struct PredictResponse {
  Tensor predictions;
  int64_t model_version = 0;
  int64_t stage = -1;
  // True when the answer came from the serving layer's fallback baseline
  // (HistoricalAverage) because the service is DEGRADED — the prediction is
  // usable but not from the trained model.
  bool degraded = false;
  // True when the serving layer's rolling window had not received a tick for
  // longer than the configured staleness threshold when this query ran.
  bool stale = false;
  // The request's causal trace ID (caller-supplied or minted by the serving
  // layer; 0 = the answering predictor does not participate in tracing).
  uint64_t trace_id = 0;
  // serve::HealthState the service was in when it admitted this query
  // (kHealthy=0 / kDegraded=1 / kLameDuck=2); -1 = not answered through a
  // ForecastService. An int so core/ does not depend on serve/ headers.
  int32_t health_state = -1;
  // Engine that produced `predictions` (plan vs tape vs degraded fallback).
  AnswerExecutor executor = AnswerExecutor::kUnknown;
};

class StPredictor {
 public:
  virtual ~StPredictor() = default;

  virtual std::string name() const = 0;

  // Trains on one stage's train split for `epochs`; returns the per-epoch
  // mean training loss (the convergence curve of Fig. 8).
  virtual std::vector<float> TrainStage(const data::StDataset& train, int64_t epochs) = 0;

  // Answers a batched forecast query: [B, M, N, C] -> [B, H, N, 1] in
  // normalized space, stamping the model version/stage into the response.
  // Const so a predictor (or an immutable weight snapshot wrapping one) can
  // serve many reader threads concurrently; recoverable problems (bad
  // horizon, malformed batch) come back as an error Status instead of
  // aborting the server.
  virtual Status Predict(const PredictRequest& request, PredictResponse* response) const = 0;

  // --- Crash-safety hooks (no-ops for models without checkpoint support) ---

  // Called by the protocol runner before each stage with the stage's index,
  // so checkpoint-aware models can tag their progress cursor.
  virtual void BeginStage(int64_t stage_index) { (void)stage_index; }

  // First stage index that still needs training. A model restored from a
  // checkpoint returns the stage its cursor points at; the protocol runner
  // skips training for earlier stages (their effect is already baked into
  // the restored parameters and replay buffer).
  virtual int64_t ResumeStageIndex() const { return 0; }

  // True when the last TrainStage was interrupted (cooperative fault-injection
  // stop). The protocol runner stops the stage loop instead of evaluating a
  // half-trained stage.
  virtual bool TrainingInterrupted() const { return false; }
};

// Shared tail of every Predict implementation: validates the requested
// horizon against the model's full output window `full` ([B, N_out, N, 1]),
// slices the leading `horizon` steps when a partial window was asked for and
// moves the result into `response->predictions`. Version/stage stamping
// remains the implementation's responsibility.
Status FinishPrediction(const PredictRequest& request, Tensor full, PredictResponse* response);

// The optimizer settings URCL and every deep baseline train with: Adam's
// step size, and the global gradient-norm bound applied before each step.
inline constexpr float kLearningRate = 2e-3f;
inline constexpr float kGradClipNorm = 5.0f;

// The order in which one training epoch visits the stage's `num_samples`
// windows; consecutive runs of `batch_size` entries form the minibatches
// (Algorithm 1 line 5 selects batches sequentially). When
// `max_batches_per_epoch` > 0 caps the epoch below the stage's size, the
// epoch takes evenly spaced windows in temporal order, so it still covers the
// whole stage. The windows are interleaved so every minibatch spans the whole
// stage: batch k = {w[k], w[num_batches + k], ...}. In-batch diversity matters
// for the GraphCL negatives (consecutive overlapping windows would be
// indistinguishable) and steadies the stochastic gradient.
std::vector<int64_t> EpochSchedule(int64_t num_samples, int64_t batch_size,
                                   int64_t max_batches_per_epoch);

// Windows per Predict call when a model is evaluated on a test split.
inline constexpr int64_t kEvalBatchSize = 16;

// Evaluates `model` over every window of `test`, kEvalBatchSize windows per
// Predict call, denormalizing predictions and targets with `normalizer` (the
// paper reports MAE/RMSE in data units).
data::EvalMetrics EvaluatePredictor(const StPredictor& model, const data::StDataset& test,
                                    const data::MinMaxNormalizer& normalizer,
                                    int64_t target_channel);

// Same, but accumulates into `accumulator` so several test sets can be
// pooled (the seen-so-far continual evaluation protocol).
void EvaluatePredictorInto(const StPredictor& model, const data::StDataset& test,
                           const data::MinMaxNormalizer& normalizer, int64_t target_channel,
                           data::MetricsAccumulator* accumulator);

}  // namespace core
}  // namespace urcl

#endif  // URCL_CORE_PREDICTOR_H_
