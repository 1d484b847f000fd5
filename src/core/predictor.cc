#include "core/predictor.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "tensor/tensor_ops.h"

namespace urcl {
namespace core {

Status FinishPrediction(const PredictRequest& request, Tensor full, PredictResponse* response) {
  if (response == nullptr) return Status::InvalidArgument("PredictResponse must not be null");
  URCL_CHECK_EQ(full.shape().rank(), 4) << "predictions must be [B, N_out, N, 1]";
  const int64_t output_steps = full.shape().dim(1);
  if (request.horizon < 0 || request.horizon > output_steps) {
    return Status::InvalidArgument(
        "requested horizon " + std::to_string(request.horizon) +
                         " outside the model's output window [0, " +
                         std::to_string(output_steps) + "]");
  }
  if (request.horizon == 0 || request.horizon == output_steps) {
    response->predictions = std::move(full);
    return Status::Ok();
  }
  response->predictions =
      ops::Slice(full, {0, 0, 0, 0},
                 {full.shape().dim(0), request.horizon, full.shape().dim(2), full.shape().dim(3)});
  return Status::Ok();
}

namespace {

// Full-horizon predictions for one evaluation batch. The harness has no
// fallback, so a failed Predict or a prediction shaped unlike the targets
// aborts with the model's name.
Tensor PredictBatch(const StPredictor& model, const Tensor& inputs, const Tensor& targets) {
  PredictRequest request;
  request.inputs = inputs;
  PredictResponse response;
  const Status status = model.Predict(request, &response);
  URCL_CHECK(status.ok()) << model.name() << ": Predict failed: " << status.message();
  URCL_CHECK(response.predictions.shape() == targets.shape())
      << model.name() << " produced " << response.predictions.shape().ToString()
      << ", expected " << targets.shape().ToString();
  return response.predictions;
}

}  // namespace

void EvaluatePredictorInto(const StPredictor& model, const data::StDataset& test,
                           const data::MinMaxNormalizer& normalizer, int64_t target_channel,
                           int64_t batch_size, data::MetricsAccumulator* accumulator) {
  URCL_CHECK_GT(batch_size, 0);
  URCL_CHECK(accumulator != nullptr);
  const int64_t num_samples = test.NumSamples();
  URCL_CHECK_GT(num_samples, 0) << "test split has no complete windows";
  for (int64_t start = 0; start < num_samples; start += batch_size) {
    const int64_t count = std::min(batch_size, num_samples - start);
    std::vector<int64_t> indices(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) indices[static_cast<size_t>(i)] = start + i;
    const auto [inputs, targets] = test.MakeBatch(indices);
    const Tensor predictions = PredictBatch(model, inputs, targets);
    accumulator->Add(normalizer.InverseTransformChannel(predictions, target_channel),
                     normalizer.InverseTransformChannel(targets, target_channel));
  }
}

std::vector<int64_t> EpochSchedule(int64_t num_samples, int64_t batch_size,
                                   int64_t max_batches_per_epoch) {
  URCL_CHECK_GT(num_samples, 0);
  URCL_CHECK_GT(batch_size, 0);
  int64_t budget = num_samples;
  if (max_batches_per_epoch > 0) {
    budget = std::min(budget, max_batches_per_epoch * batch_size);
  }
  const int64_t num_batches = (budget + batch_size - 1) / batch_size;
  std::vector<int64_t> schedule;
  schedule.reserve(static_cast<size_t>(budget));
  for (int64_t k = 0; k < num_batches; ++k) {
    // Window i of the evenly spaced selection is i * num_samples / budget.
    for (int64_t i = k; i < budget; i += num_batches) {
      schedule.push_back(i * num_samples / budget);
    }
  }
  return schedule;
}

double ValidationMae(const StPredictor& model, const data::StDataset& dataset,
                     int64_t batch_size) {
  URCL_CHECK_GT(batch_size, 0);
  const int64_t num_samples = dataset.NumSamples();
  URCL_CHECK_GT(num_samples, 0) << "validation split has no complete windows";
  data::MetricsAccumulator accumulator;
  for (int64_t start = 0; start < num_samples; start += batch_size) {
    const int64_t count = std::min(batch_size, num_samples - start);
    std::vector<int64_t> indices(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) indices[static_cast<size_t>(i)] = start + i;
    const auto [inputs, targets] = dataset.MakeBatch(indices);
    accumulator.Add(PredictBatch(model, inputs, targets), targets);
  }
  return accumulator.Result().mae;
}

data::EvalMetrics EvaluatePredictor(const StPredictor& model, const data::StDataset& test,
                                    const data::MinMaxNormalizer& normalizer,
                                    int64_t target_channel, int64_t batch_size) {
  data::MetricsAccumulator accumulator;
  EvaluatePredictorInto(model, test, normalizer, target_channel, batch_size, &accumulator);
  return accumulator.Result();
}

}  // namespace core
}  // namespace urcl
