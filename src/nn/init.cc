#include "nn/init.h"

#include <cmath>

#include "common/check.h"

namespace urcl {
namespace nn {

Tensor GlorotUniform(const Shape& shape, Rng& rng, int64_t fan_in, int64_t fan_out) {
  URCL_CHECK_GT(fan_in + fan_out, 0);
  const float limit = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return Tensor::RandomUniform(shape, rng, -limit, limit);
}

}  // namespace nn
}  // namespace urcl
