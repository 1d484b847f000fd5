// Classic per-node ARIMA(p, d, 0) fitted by least squares — the statistical
// baseline of Sec. V-A2. Each sensor gets its own AR coefficients on the
// (optionally differenced) target-channel series; it sees no spatial
// structure, which is exactly why it trails the graph models.
#ifndef URCL_BASELINES_ARIMA_H_
#define URCL_BASELINES_ARIMA_H_

#include <string>
#include <vector>

#include "core/predictor.h"

namespace urcl {
namespace baselines {

struct ArimaOptions {
  int64_t ar_order = 4;   // p
  int64_t difference = 1; // d
};

class ArimaPredictor : public core::StPredictor {
 public:
  ArimaPredictor(const ArimaOptions& options, int64_t output_steps, int64_t target_channel);

  std::string name() const override { return "ARIMA"; }

  // "Training" = refitting the per-node AR coefficients on this stage.
  std::vector<float> TrainStage(const data::StDataset& train, int64_t epochs) override;

  Status Predict(const core::PredictRequest& request,
                 core::PredictResponse* response) const override;

  // Fitted coefficients for `node`: [c, phi_1..phi_p]; empty before training.
  const std::vector<float>& Coefficients(int64_t node) const;

 private:
  // Forecasts `steps` values beyond `history` (undifferenced target values).
  std::vector<float> Forecast(const std::vector<float>& history, int64_t node,
                              int64_t steps) const;

  ArimaOptions options_;
  int64_t output_steps_;
  int64_t target_channel_;
  std::vector<std::vector<float>> coefficients_;  // per node
};

// Solves the dense linear system A x = b (Gaussian elimination with partial
// pivoting). Exposed for tests.
std::vector<float> SolveLinearSystem(std::vector<std::vector<double>> a,
                                     std::vector<double> b);

}  // namespace baselines
}  // namespace urcl

#endif  // URCL_BASELINES_ARIMA_H_
