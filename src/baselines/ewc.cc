#include "baselines/ewc.h"

#include <algorithm>

#include "autograd/ops.h"
#include "common/check.h"
#include "tensor/tensor_ops.h"

namespace urcl {
namespace baselines {

namespace ag = ::urcl::autograd;

Ewc::Ewc(std::unique_ptr<core::StBackbone> encoder, const DeepBaselineOptions& options,
         const graph::SensorNetwork& network, Rng& rng, float lambda, int64_t fisher_batches)
    : DeepBaseline("EWC", std::move(encoder), options, network, rng),
      rng_(rng),
      lambda_(lambda),
      fisher_batches_(fisher_batches) {}

autograd::Variable Ewc::Penalty() const {
  URCL_CHECK(consolidated());
  const std::vector<autograd::Variable> params = Parameters();
  autograd::Variable total(Tensor::Scalar(0.0f), /*requires_grad=*/false);
  for (size_t i = 0; i < params.size(); ++i) {
    autograd::Variable anchor(anchors_[i], /*requires_grad=*/false);
    autograd::Variable fisher(fisher_[i], /*requires_grad=*/false);
    autograd::Variable diff = ag::Sub(params[i], anchor);
    total = ag::Add(total, ag::Sum(ag::Mul(fisher, ag::Square(diff))));
  }
  return ag::MulScalar(total, 0.5f * lambda_);
}

float Ewc::PenaltyValue() const {
  if (!consolidated()) return 0.0f;
  return Penalty().value().Item();
}

autograd::Variable Ewc::StepLoss(const Tensor& inputs, const Tensor& targets) const {
  const autograd::Variable loss = DeepBaseline::StepLoss(inputs, targets);
  return consolidated() ? ag::Add(loss, Penalty()) : loss;
}

void Ewc::Consolidate(const data::StDataset& train) {
  const std::vector<autograd::Variable> params = Parameters();
  std::vector<Tensor> fisher;
  fisher.reserve(params.size());
  for (const autograd::Variable& p : params) fisher.push_back(Tensor::Zeros(p.shape()));

  const int64_t batch_size = options().batch_size;
  const int64_t num_samples = train.NumSamples();
  const int64_t batches =
      std::min(fisher_batches_, std::max<int64_t>(1, num_samples / batch_size));
  for (int64_t b = 0; b < batches; ++b) {
    std::vector<int64_t> indices;
    for (int64_t i = 0; i < batch_size; ++i) {
      indices.push_back(rng_.UniformInt(0, num_samples - 1));
    }
    const auto [inputs, targets] = train.MakeBatch(indices);
    for (const autograd::Variable& p : params) p.ZeroGrad();
    DeepBaseline::StepLoss(inputs, targets).Backward();
    for (size_t i = 0; i < params.size(); ++i) {
      Tensor g2 = ops::Square(params[i].grad());
      g2.MulInPlace(1.0f / static_cast<float>(batches));
      fisher[i].AddInPlace(g2);
    }
  }
  for (const autograd::Variable& p : params) p.ZeroGrad();

  if (fisher_.empty()) {
    fisher_ = std::move(fisher);
  } else {
    // Accumulate Fisher across stages (standard multi-task EWC).
    for (size_t i = 0; i < fisher_.size(); ++i) fisher_[i].AddInPlace(fisher[i]);
  }
  anchors_.clear();
  for (const autograd::Variable& p : params) anchors_.push_back(p.value().Clone());
}

std::vector<float> Ewc::TrainStage(const data::StDataset& train, int64_t epochs) {
  std::vector<float> epoch_losses = DeepBaseline::TrainStage(train, epochs);
  Consolidate(train);
  return epoch_losses;
}

}  // namespace baselines
}  // namespace urcl
