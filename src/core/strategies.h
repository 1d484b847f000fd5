// Continual training protocols (Fig. 5 and Sec. V-B1): OneFitAll trains on
// the base set only; FinetuneST / replay-based training revisit the model on
// every incremental set. The replay behaviour itself lives inside the model
// (UrclTrainer with enable_replay); the protocol runner is shared.
#ifndef URCL_CORE_STRATEGIES_H_
#define URCL_CORE_STRATEGIES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "data/stream.h"
#include "obs/learning.h"

namespace urcl {
namespace core {

enum class TrainingStrategy {
  kOneFitAll,   // train on B_set once, predict everything
  kContinual,   // (re)train on every stage (FinetuneST or URCL-replay)
};

struct StageResult {
  std::string stage_name;
  data::EvalMetrics metrics;            // on the pooled seen-so-far test splits
  double train_seconds = 0.0;           // wall clock spent training this stage
  double train_seconds_per_epoch = 0.0;
  double infer_seconds_per_observation = 0.0;
  std::vector<float> epoch_losses;      // convergence curve (Fig. 8)
};

struct ProtocolOptions {
  TrainingStrategy strategy = TrainingStrategy::kContinual;
  int64_t epochs_per_stage = 10;
  // Structured-log hook: invoked once per trained epoch after the stage's
  // evaluation completes, with the epoch's mean training loss and the
  // finished StageResult (whose metrics/timings are the stage-end snapshot).
  // The examples wire this to a JSONL writer behind --log-jsonl.
  std::function<void(int64_t stage_index, int64_t epoch, float epoch_loss,
                     const StageResult& stage)>
      epoch_log;
  // Optional learning-quality recorder. The runner fills its R[t][s] matrix
  // (each seen stage's holdout is scored separately, then pooled — same
  // total work) and re-exports the forgetting / backward-transfer gauges
  // after every stage. Owned by the caller.
  obs::LearningTelemetry* learning = nullptr;
  // When set (with `learning`), the telemetry JSON document is rewritten to
  // this path after every stage, so even an interrupted run leaves the
  // forgetting matrix of the stages it finished.
  std::string learning_json_path;
};

// Runs the protocol over every stage of `stream`; returns one result per
// stage. After stage k the model is evaluated, in denormalized units, on the
// pooled test splits of stages 0..k: the continual-learning "accuracy over
// everything seen so far" protocol, which is what makes forgetting visible
// (FinetuneST's scores in Table II degrade on incremental sets even though it
// just trained on them, because the earlier sets are forgotten).
std::vector<StageResult> RunContinualProtocol(StPredictor& model,
                                              const data::StreamSplitter& stream,
                                              const data::MinMaxNormalizer& normalizer,
                                              int64_t target_channel,
                                              const ProtocolOptions& options);

}  // namespace core
}  // namespace urcl

#endif  // URCL_CORE_STRATEGIES_H_
