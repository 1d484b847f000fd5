// Elastic Weight Consolidation (Kirkpatrick et al., the regularization-based
// continual-learning family discussed in the paper's related work, Sec. II-B).
// Provided as an extension so the replay-based URCL can be compared against a
// regularization-based alternative under the same protocol: after each stage,
// the diagonal Fisher information is estimated and subsequent stages pay a
// quadratic penalty lambda/2 * sum_i F_i (theta_i - theta*_i)^2 for moving
// parameters that mattered to earlier stages.
#ifndef URCL_BASELINES_EWC_H_
#define URCL_BASELINES_EWC_H_

#include <memory>
#include <vector>

#include "baselines/deep_baseline.h"

namespace urcl {
namespace baselines {

class Ewc : public DeepBaseline {
 public:
  // As DeepBaseline; after building the decoder from `rng` it keeps a copy of
  // the stream for its Fisher batches. `lambda` is the penalty strength and
  // `fisher_batches` the Fisher estimation budget per stage.
  Ewc(std::unique_ptr<core::StBackbone> encoder, const DeepBaselineOptions& options,
      const graph::SensorNetwork& network, Rng& rng, float lambda = 500.0f,
      int64_t fisher_batches = 8);

  // Trains with the task loss plus the penalty (once a stage was
  // consolidated), then consolidates this stage's Fisher information.
  std::vector<float> TrainStage(const data::StDataset& train, int64_t epochs) override;

  bool consolidated() const { return !fisher_.empty(); }

  // Current penalty value (diagnostics / tests).
  float PenaltyValue() const;

 protected:
  autograd::Variable StepLoss(const Tensor& inputs, const Tensor& targets) const override;

 private:
  // lambda/2 * sum_i F_i (theta_i - theta*_i)^2 as an autograd expression.
  autograd::Variable Penalty() const;

  // Accumulates squared task-loss gradients over `fisher_batches` batches.
  void Consolidate(const data::StDataset& train);

  Rng rng_;
  float lambda_;
  int64_t fisher_batches_;
  std::vector<Tensor> fisher_;   // diagonal Fisher, per parameter
  std::vector<Tensor> anchors_;  // theta* from the last consolidation
};

}  // namespace baselines
}  // namespace urcl

#endif  // URCL_BASELINES_EWC_H_
