// Elastic Weight Consolidation (Kirkpatrick et al., the regularization-based
// continual-learning family discussed in the paper's related work, Sec. II-B).
// Provided as an extension so the replay-based URCL can be compared against a
// regularization-based alternative under the same protocol: after each stage,
// the diagonal Fisher information is estimated and subsequent stages pay a
// quadratic penalty lambda/2 * sum_i F_i (theta_i - theta*_i)^2 for moving
// parameters that mattered to earlier stages.
#ifndef URCL_CORE_EWC_H_
#define URCL_CORE_EWC_H_

#include <memory>
#include <string>
#include <vector>

#include "core/backbone.h"
#include "core/predictor.h"
#include "core/stdecoder.h"
#include "graph/sensor_network.h"
#include "nn/optimizer.h"

namespace urcl {
namespace core {

struct EwcConfig {
  BackboneType backbone = BackboneType::kGraphWaveNet;
  BackboneConfig encoder;
  int64_t decoder_hidden = 128;
  int64_t output_steps = 1;

  int64_t batch_size = 8;
  float learning_rate = 2e-3f;
  float grad_clip = 5.0f;
  int64_t max_batches_per_epoch = 40;

  // EWC strength and Fisher estimation budget.
  float ewc_lambda = 500.0f;
  int64_t fisher_batches = 8;

  uint64_t seed = 1;
};

class EwcTrainer : public StPredictor {
 public:
  EwcTrainer(const EwcConfig& config, const graph::SensorNetwork& network);

  std::string name() const override { return "EWC"; }

  // Trains with the task loss plus the EWC penalty (if any stage was
  // consolidated before), then consolidates this stage's Fisher information.
  std::vector<float> TrainStage(const data::StDataset& train, int64_t epochs) override;

  Status Predict(const PredictRequest& request, PredictResponse* response) const override;

  bool consolidated() const { return !fisher_.empty(); }

  // Current penalty value (diagnostics / tests).
  float PenaltyValue() const;

 private:
  // lambda/2 * sum_i F_i (theta_i - theta*_i)^2 as an autograd expression.
  autograd::Variable Penalty() const;

  // Accumulates squared task-loss gradients over `fisher_batches` batches.
  void Consolidate(const data::StDataset& train);

  EwcConfig config_;
  Rng rng_;
  Tensor adjacency_;
  std::unique_ptr<StBackbone> encoder_;
  std::unique_ptr<StDecoder> decoder_;
  std::vector<autograd::Variable> params_;
  std::unique_ptr<nn::Adam> optimizer_;
  std::vector<Tensor> fisher_;   // diagonal Fisher, per parameter
  std::vector<Tensor> anchors_;  // theta* from the last consolidation
};

}  // namespace core
}  // namespace urcl

#endif  // URCL_CORE_EWC_H_
