// Trivial baseline: predicts the mean of the input window's target channel.
// Useful as a sanity floor in tests and benches.
#ifndef URCL_BASELINES_HISTORICAL_AVERAGE_H_
#define URCL_BASELINES_HISTORICAL_AVERAGE_H_

#include <string>
#include <vector>

#include "core/predictor.h"

namespace urcl {
namespace baselines {

class HistoricalAverage : public core::StPredictor {
 public:
  HistoricalAverage(int64_t output_steps, int64_t target_channel);

  std::string name() const override { return "HistoricalAverage"; }
  std::vector<float> TrainStage(const data::StDataset& train, int64_t epochs) override;
  Status Predict(const core::PredictRequest& request,
                 core::PredictResponse* response) const override;

 private:
  int64_t output_steps_;
  int64_t target_channel_;
};

}  // namespace baselines
}  // namespace urcl

#endif  // URCL_BASELINES_HISTORICAL_AVERAGE_H_
