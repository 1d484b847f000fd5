#include "nn/layer_norm.h"

#include "autograd/ops.h"
#include "common/check.h"

namespace urcl {
namespace nn {

namespace ag = ::urcl::autograd;

LayerNorm::LayerNorm(int64_t num_channels, Rng& rng, float epsilon)
    : num_channels_(num_channels), epsilon_(epsilon) {
  URCL_CHECK_GT(num_channels, 0);
  (void)rng;  // affine parameters have deterministic init
  gamma_ = RegisterParameter("gamma", Tensor::Ones(Shape{1, num_channels, 1, 1}));
  beta_ = RegisterParameter("beta", Tensor::Zeros(Shape{1, num_channels, 1, 1}));
}

Variable LayerNorm::Forward(const Variable& x) const {
  URCL_CHECK_EQ(x.shape().rank(), 4) << "LayerNorm expects [B, C, N, T]";
  URCL_CHECK_EQ(x.shape().dim(1), num_channels_);
  // Mean/variance over the channel axis, keeping dims for broadcasting.
  Variable mean = ag::Mean(x, {1}, /*keepdims=*/true);
  Variable centered = ag::Sub(x, mean);
  Variable variance = ag::Mean(ag::Square(centered), {1}, /*keepdims=*/true);
  Variable normalized = ag::Div(centered, ag::Sqrt(ag::AddScalar(variance, epsilon_)));
  return ag::Add(ag::Mul(normalized, gamma_), beta_);
}

}  // namespace nn
}  // namespace urcl
