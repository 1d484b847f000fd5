#include "baselines/deep_baseline.h"

#include <algorithm>

#include "common/check.h"
#include "nn/loss.h"

namespace urcl {
namespace baselines {

DeepBaseline::DeepBaseline(std::string name, std::unique_ptr<core::StBackbone> encoder,
                           const DeepBaselineOptions& options,
                           const graph::SensorNetwork& network, Rng& rng)
    : core::Forecaster(std::move(encoder), options.decoder_hidden, options.output_steps, rng),
      name_(std::move(name)),
      options_(options),
      adjacency_(network.AdjacencyMatrix()) {
  optimizer_ = std::make_unique<nn::Adam>(Parameters(), options.learning_rate);
}

autograd::Variable DeepBaseline::StepLoss(const Tensor& inputs, const Tensor& targets) const {
  const autograd::Variable x(inputs, /*requires_grad=*/false);
  const autograd::Variable y(targets, /*requires_grad=*/false);
  return nn::MaeLoss(Forward(x, adjacency_), y);
}

std::vector<float> DeepBaseline::TrainStage(const data::StDataset& train, int64_t epochs) {
  URCL_CHECK_GT(epochs, 0);
  const int64_t num_samples = train.NumSamples();
  URCL_CHECK_GT(num_samples, 0) << "train split has no complete windows";

  const int64_t batch = options_.batch_size;
  const std::vector<int64_t> schedule =
      core::EpochSchedule(num_samples, batch, options_.max_batches_per_epoch);

  std::vector<float> epoch_losses;
  for (int64_t epoch = 0; epoch < epochs; ++epoch) {
    double loss_sum = 0.0;
    int64_t steps = 0;
    for (int64_t start = 0; start < static_cast<int64_t>(schedule.size()); start += batch) {
      const int64_t count =
          std::min<int64_t>(batch, static_cast<int64_t>(schedule.size()) - start);
      std::vector<int64_t> indices(schedule.begin() + start, schedule.begin() + start + count);
      const auto [inputs, targets] = train.MakeBatch(indices);
      autograd::Variable loss = StepLoss(inputs, targets);
      optimizer_->ZeroGrad();
      loss.Backward();
      if (options_.grad_clip > 0.0f) optimizer_->ClipGradNorm(options_.grad_clip);
      optimizer_->Step();
      loss_sum += loss.value().Item();
      ++steps;
    }
    epoch_losses.push_back(steps > 0 ? static_cast<float>(loss_sum / steps) : 0.0f);
  }
  return epoch_losses;
}

Status DeepBaseline::Predict(const core::PredictRequest& request,
                             core::PredictResponse* response) const {
  const autograd::Variable x(request.inputs, /*requires_grad=*/false);
  return core::FinishPrediction(request, Forward(x, adjacency_).value(), response);
}

}  // namespace baselines
}  // namespace urcl
