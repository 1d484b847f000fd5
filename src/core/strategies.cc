#include "core/strategies.h"

#include <cstdio>

#include "common/check.h"
#include "common/stopwatch.h"

namespace urcl {
namespace core {

std::vector<StageResult> RunContinualProtocol(StPredictor& model,
                                              const data::StreamSplitter& stream,
                                              const data::MinMaxNormalizer& normalizer,
                                              int64_t target_channel,
                                              const ProtocolOptions& options) {
  URCL_CHECK_GT(options.epochs_per_stage, 0);
  std::vector<StageResult> results;
  // A model restored from a checkpoint reports the first stage that still
  // needs training; earlier stages are already reflected in its state.
  const int64_t resume_from = model.ResumeStageIndex();
  for (int64_t i = 0; i < stream.NumStages(); ++i) {
    const data::StreamStage& stage = stream.Stage(i);
    StageResult result;
    result.stage_name = stage.name;
    model.BeginStage(i);

    const bool should_train =
        (options.strategy == TrainingStrategy::kContinual || i == 0) && i >= resume_from;
    if (should_train) {
      Stopwatch train_timer;
      result.epoch_losses = model.TrainStage(stage.train, options.epochs_per_stage);
      result.train_seconds = train_timer.ElapsedSeconds();
      const size_t epochs_run =
          result.epoch_losses.empty() ? 1 : result.epoch_losses.size();
      result.train_seconds_per_epoch =
          result.train_seconds / static_cast<double>(epochs_run);
      if (model.TrainingInterrupted()) {
        // Cooperative fault-injection stop: surface the partial result and
        // bail out; the caller resumes from the last checkpoint.
        results.push_back(std::move(result));
        break;
      }
    }

    Stopwatch eval_timer;
    int64_t observations = 0;
    // Pool the test splits of stages 0..i. Each stage is scored into its own
    // accumulator and merged, so per-stage MAE feeds the forgetting matrix
    // without a second evaluation pass.
    data::MetricsAccumulator accumulator;
    for (int64_t j = 0; j <= i; ++j) {
      data::MetricsAccumulator stage_accumulator;
      EvaluatePredictorInto(model, stream.Stage(j).test, normalizer, target_channel,
                            &stage_accumulator);
      observations += stream.Stage(j).test.NumSamples();
      if (options.learning != nullptr) {
        options.learning->Record(i, j, stage_accumulator.Result().mae);
      }
      accumulator.Merge(stage_accumulator);
    }
    result.metrics = accumulator.Result();
    if (options.learning != nullptr) {
      options.learning->ExportGauges();
      if (!options.learning_json_path.empty()) {
        const Status written = options.learning->WriteJson(options.learning_json_path);
        if (!written.ok()) {
          std::fprintf(stderr, "[urcl] learning telemetry write failed: %s\n",
                       written.message().c_str());
        }
      }
    }
    result.infer_seconds_per_observation =
        observations > 0 ? eval_timer.ElapsedSeconds() / static_cast<double>(observations) : 0.0;
    if (options.epoch_log) {
      for (size_t e = 0; e < result.epoch_losses.size(); ++e) {
        options.epoch_log(i, static_cast<int64_t>(e), result.epoch_losses[e], result);
      }
    }
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace core
}  // namespace urcl
