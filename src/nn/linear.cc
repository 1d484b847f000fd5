#include "nn/linear.h"

#include "autograd/ops.h"
#include "common/check.h"
#include "nn/init.h"

namespace urcl {
namespace nn {

namespace ag = ::urcl::autograd;

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng, bool bias)
    : in_features_(in_features), out_features_(out_features) {
  URCL_CHECK_GT(in_features, 0);
  URCL_CHECK_GT(out_features, 0);
  weight_ = RegisterParameter(
      "weight", GlorotUniform(Shape{in_features, out_features}, rng, in_features, out_features));
  if (bias) bias_ = RegisterParameter("bias", Tensor::Zeros(Shape{out_features}));
}

Variable Linear::Forward(const Variable& x) const {
  URCL_CHECK_GE(x.shape().rank(), 2) << "Linear expects rank >= 2";
  URCL_CHECK_EQ(x.shape().dim(-1), in_features_)
      << "Linear: input " << x.shape().ToString() << " does not end in " << in_features_;
  Variable y = ag::MatMul(x, weight_);
  if (bias_.IsValid()) y = ag::Add(y, bias_);
  return y;
}

ChannelLinear::ChannelLinear(int64_t in_channels, int64_t out_channels, Rng& rng, bool bias)
    : in_channels_(in_channels), out_channels_(out_channels) {
  weight_ = RegisterParameter(
      "weight", GlorotUniform(Shape{out_channels, in_channels, 1, 1}, rng, in_channels,
                              out_channels));
  if (bias) {
    bias_ = RegisterParameter("bias", Tensor::Zeros(Shape{1, out_channels, 1, 1}));
  }
}

Variable ChannelLinear::Forward(const Variable& x) const {
  URCL_CHECK_EQ(x.shape().rank(), 4) << "ChannelLinear expects [B, C, N, T]";
  URCL_CHECK_EQ(x.shape().dim(1), in_channels_)
      << "ChannelLinear: input " << x.shape().ToString() << " has wrong channel count";
  Variable y = ag::TemporalConv2d(x, weight_, /*dilation=*/1);
  if (bias_.IsValid()) y = ag::Add(y, bias_);
  return y;
}

Variable Activate(const Variable& x, Activation activation) {
  switch (activation) {
    case Activation::kNone:
      return x;
    case Activation::kRelu:
      return ag::Relu(x);
    case Activation::kTanh:
      return ag::Tanh(x);
    case Activation::kSigmoid:
      return ag::Sigmoid(x);
  }
  URCL_CHECK(false) << "unknown activation";
  return x;
}

Mlp::Mlp(const std::vector<int64_t>& sizes, Rng& rng, Activation activation,
         bool activate_last)
    : activation_(activation), activate_last_(activate_last) {
  URCL_CHECK_GE(sizes.size(), 2u) << "Mlp needs at least {in, out}";
  for (size_t i = 0; i + 1 < sizes.size(); ++i) {
    layers_.push_back(std::make_unique<Linear>(sizes[i], sizes[i + 1], rng));
    RegisterChild("layer" + std::to_string(i), layers_.back().get());
  }
}

Variable Mlp::Forward(const Variable& x) const {
  Variable h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i]->Forward(h);
    const bool last = i + 1 == layers_.size();
    if (!last || activate_last_) h = Activate(h, activation_);
  }
  return h;
}

}  // namespace nn
}  // namespace urcl
