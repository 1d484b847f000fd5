// Fully connected layers: Linear on the trailing axis, ChannelLinear (1x1
// convolution) on the channel axis of [B, C, N, T] tensors, and an Mlp stack.
#ifndef URCL_NN_LINEAR_H_
#define URCL_NN_LINEAR_H_

#include <memory>
#include <vector>

#include "nn/module.h"

namespace urcl {
namespace nn {

// y = x W + b over the last axis: [..., in] -> [..., out].
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng& rng, bool bias = true);

  Variable Forward(const Variable& x) const;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  Variable weight_;  // [in, out]
  Variable bias_;    // [out] or empty
};

// 1x1 "convolution": linear map over the channel axis of [B, C, N, T].
// This is how GraphWaveNet implements its start/skip/end projections.
class ChannelLinear : public Module {
 public:
  ChannelLinear(int64_t in_channels, int64_t out_channels, Rng& rng, bool bias = true);

  // [B, C_in, N, T] -> [B, C_out, N, T]
  Variable Forward(const Variable& x) const;

 private:
  int64_t in_channels_;
  int64_t out_channels_;
  Variable weight_;  // [C_out, C_in, 1, 1]
  Variable bias_;    // [1, C_out, 1, 1] or empty
};

enum class Activation { kNone, kRelu, kTanh, kSigmoid };

// Stacked Linear layers with an activation between (and optionally after).
class Mlp : public Module {
 public:
  // `sizes` = {in, hidden..., out}. Activation applied after each layer
  // except the last unless `activate_last`.
  Mlp(const std::vector<int64_t>& sizes, Rng& rng,
      Activation activation = Activation::kRelu, bool activate_last = false);

  Variable Forward(const Variable& x) const;

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
  Activation activation_;
  bool activate_last_;
};

// Applies the given activation (kNone passes through).
Variable Activate(const Variable& x, Activation activation);

}  // namespace nn
}  // namespace urcl

#endif  // URCL_NN_LINEAR_H_
