#include "core/ewc.h"

#include <algorithm>

#include "autograd/ops.h"
#include "common/check.h"
#include "nn/loss.h"
#include "tensor/tensor_ops.h"

namespace urcl {
namespace core {

namespace ag = ::urcl::autograd;

EwcTrainer::EwcTrainer(const EwcConfig& config, const graph::SensorNetwork& network)
    : config_(config), rng_(config.seed), adjacency_(network.AdjacencyMatrix()) {
  URCL_CHECK_EQ(config.encoder.num_nodes, network.num_nodes());
  encoder_ = MakeBackbone(config.backbone, config.encoder, rng_);
  decoder_ = std::make_unique<StDecoder>(encoder_->latent_channels(), encoder_->latent_time(),
                                         config.decoder_hidden, config.output_steps, rng_);
  params_ = encoder_->Parameters();
  const std::vector<autograd::Variable> decoder_params = decoder_->Parameters();
  params_.insert(params_.end(), decoder_params.begin(), decoder_params.end());
  optimizer_ = std::make_unique<nn::Adam>(params_, config.learning_rate);
}

autograd::Variable EwcTrainer::Penalty() const {
  URCL_CHECK(consolidated());
  autograd::Variable total(Tensor::Scalar(0.0f), /*requires_grad=*/false);
  for (size_t i = 0; i < params_.size(); ++i) {
    autograd::Variable anchor(anchors_[i], /*requires_grad=*/false);
    autograd::Variable fisher(fisher_[i], /*requires_grad=*/false);
    autograd::Variable diff = ag::Sub(params_[i], anchor);
    total = ag::Add(total, ag::Sum(ag::Mul(fisher, ag::Square(diff))));
  }
  return ag::MulScalar(total, 0.5f * config_.ewc_lambda);
}

float EwcTrainer::PenaltyValue() const {
  if (!consolidated()) return 0.0f;
  return Penalty().value().Item();
}

void EwcTrainer::Consolidate(const data::StDataset& train) {
  std::vector<Tensor> fisher;
  fisher.reserve(params_.size());
  for (const autograd::Variable& p : params_) fisher.push_back(Tensor::Zeros(p.shape()));

  const int64_t num_samples = train.NumSamples();
  const int64_t batches = std::min(config_.fisher_batches,
                                   std::max<int64_t>(1, num_samples / config_.batch_size));
  for (int64_t b = 0; b < batches; ++b) {
    std::vector<int64_t> indices;
    for (int64_t i = 0; i < config_.batch_size; ++i) {
      indices.push_back(rng_.UniformInt(0, num_samples - 1));
    }
    const auto [inputs, targets] = train.MakeBatch(indices);
    for (const autograd::Variable& p : params_) p.ZeroGrad();
    autograd::Variable x(inputs, false);
    autograd::Variable y(targets, false);
    autograd::Variable loss =
        nn::MaeLoss(decoder_->Forward(encoder_->Encode(x, adjacency_)), y);
    loss.Backward();
    for (size_t i = 0; i < params_.size(); ++i) {
      const Tensor g = params_[i].grad();
      Tensor g2 = ops::Square(g);
      g2.MulInPlace(1.0f / static_cast<float>(batches));
      fisher[i].AddInPlace(g2);
    }
  }
  for (const autograd::Variable& p : params_) p.ZeroGrad();

  if (fisher_.empty()) {
    fisher_ = std::move(fisher);
  } else {
    // Accumulate Fisher across stages (standard multi-task EWC).
    for (size_t i = 0; i < fisher_.size(); ++i) fisher_[i].AddInPlace(fisher[i]);
  }
  anchors_.clear();
  for (const autograd::Variable& p : params_) anchors_.push_back(p.value().Clone());
}

std::vector<float> EwcTrainer::TrainStage(const data::StDataset& train, int64_t epochs) {
  URCL_CHECK_GT(epochs, 0);
  const int64_t num_samples = train.NumSamples();
  URCL_CHECK_GT(num_samples, 0);

  const int64_t batch = config_.batch_size;
  const std::vector<int64_t> schedule =
      EpochSchedule(num_samples, batch, config_.max_batches_per_epoch);

  std::vector<float> epoch_losses;
  for (int64_t epoch = 0; epoch < epochs; ++epoch) {
    double loss_sum = 0.0;
    int64_t steps = 0;
    for (int64_t start = 0; start < static_cast<int64_t>(schedule.size()); start += batch) {
      const int64_t count =
          std::min<int64_t>(batch, static_cast<int64_t>(schedule.size()) - start);
      std::vector<int64_t> indices(schedule.begin() + start, schedule.begin() + start + count);
      const auto [inputs, targets] = train.MakeBatch(indices);
      autograd::Variable x(inputs, false);
      autograd::Variable y(targets, false);
      autograd::Variable loss =
          nn::MaeLoss(decoder_->Forward(encoder_->Encode(x, adjacency_)), y);
      if (consolidated()) loss = ag::Add(loss, Penalty());
      optimizer_->ZeroGrad();
      loss.Backward();
      if (config_.grad_clip > 0.0f) optimizer_->ClipGradNorm(config_.grad_clip);
      optimizer_->Step();
      loss_sum += loss.value().Item();
      ++steps;
    }
    epoch_losses.push_back(steps > 0 ? static_cast<float>(loss_sum / steps) : 0.0f);
  }

  Consolidate(train);
  return epoch_losses;
}

Status EwcTrainer::Predict(const PredictRequest& request, PredictResponse* response) const {
  const Variable x(request.inputs, /*requires_grad=*/false);
  return FinishPrediction(request, decoder_->Forward(encoder_->Encode(x, adjacency_)).value(),
                          response);
}

}  // namespace core
}  // namespace urcl
