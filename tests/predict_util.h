// Test helper: a full-horizon forecast through the Status Predict API.
#ifndef URCL_TESTS_PREDICT_UTIL_H_
#define URCL_TESTS_PREDICT_UTIL_H_

#include <gtest/gtest.h>

#include "core/predictor.h"

namespace urcl {

// `model`'s [B, N_out, N, 1] predictions for `inputs`. A failed Predict is a
// test failure (and yields the response's empty predictions).
inline Tensor FullForecast(const core::StPredictor& model, const Tensor& inputs) {
  core::PredictRequest request;
  request.inputs = inputs;
  core::PredictResponse response;
  const Status status = model.Predict(request, &response);
  EXPECT_TRUE(status.ok()) << model.name() << ": " << status.ToString();
  return response.predictions;
}

}  // namespace urcl

#endif  // URCL_TESTS_PREDICT_UTIL_H_
