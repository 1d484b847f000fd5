// Generic deep-baseline harness: any StBackbone + STDecoder trained with
// plain MAE (no replay, no SSL). All six deep baselines of Sec. V-A2 are
// instances of this wrapper with their defining encoder; EWC adds a penalty
// to its step loss.
#ifndef URCL_BASELINES_DEEP_BASELINE_H_
#define URCL_BASELINES_DEEP_BASELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/forecaster.h"
#include "core/predictor.h"
#include "graph/sensor_network.h"
#include "nn/optimizer.h"

namespace urcl {
namespace baselines {

struct DeepBaselineOptions {
  int64_t decoder_hidden = 128;
  int64_t output_steps = 1;
  int64_t batch_size = 8;
  int64_t max_batches_per_epoch = 40;  // 0 = every window
  uint64_t seed = 1;
};

class DeepBaseline : public core::StPredictor, public core::Forecaster {
 public:
  // `rng` is the stream that built `encoder`; the decoder continues it.
  DeepBaseline(std::string name, std::unique_ptr<core::StBackbone> encoder,
               const DeepBaselineOptions& options, const graph::SensorNetwork& network,
               Rng& rng);

  std::string name() const override { return name_; }

  std::vector<float> TrainStage(const data::StDataset& train, int64_t epochs) override;

  Status Predict(const core::PredictRequest& request,
                 core::PredictResponse* response) const override;

 protected:
  // The loss each training step minimizes on one batch: by default the MAE
  // of the forecast.
  virtual autograd::Variable StepLoss(const Tensor& inputs, const Tensor& targets) const;

  const DeepBaselineOptions& options() const { return options_; }

 private:
  std::string name_;
  DeepBaselineOptions options_;
  Tensor adjacency_;
  std::unique_ptr<nn::Adam> optimizer_;
};

}  // namespace baselines
}  // namespace urcl

#endif  // URCL_BASELINES_DEEP_BASELINE_H_
