#include "nn/tcn.h"

#include "autograd/ops.h"
#include "common/check.h"
#include "nn/init.h"

namespace urcl {
namespace nn {

namespace ag = ::urcl::autograd;

GatedTcn::GatedTcn(int64_t in_channels, int64_t out_channels, int64_t kernel_size,
                   int64_t dilation, Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      dilation_(dilation) {
  URCL_CHECK_GE(kernel_size, 1);
  URCL_CHECK_GE(dilation, 1);
  const Shape weight_shape{out_channels, in_channels, 1, kernel_size};
  const int64_t fan_in = in_channels * kernel_size;
  filter_weight_ = RegisterParameter("filter_weight",
                                     GlorotUniform(weight_shape, rng, fan_in, out_channels));
  filter_bias_ = RegisterParameter("filter_bias", Tensor::Zeros(Shape{1, out_channels, 1, 1}));
  gate_weight_ = RegisterParameter("gate_weight",
                                   GlorotUniform(weight_shape, rng, fan_in, out_channels));
  gate_bias_ = RegisterParameter("gate_bias", Tensor::Zeros(Shape{1, out_channels, 1, 1}));
}

Variable GatedTcn::Forward(const Variable& x) const {
  URCL_CHECK_EQ(x.shape().rank(), 4) << "GatedTcn expects [B, C, N, T]";
  URCL_CHECK_EQ(x.shape().dim(1), in_channels_);
  Variable filtered =
      ag::Add(ag::TemporalConv2d(x, filter_weight_, dilation_), filter_bias_);
  Variable gated = ag::Add(ag::TemporalConv2d(x, gate_weight_, dilation_), gate_bias_);
  return ag::Mul(ag::Tanh(filtered), ag::Sigmoid(gated));
}

}  // namespace nn
}  // namespace urcl
