// Gated temporal convolution (Eq. 26): h = tanh(W1 * X) ⊙ sigmoid(W2 * X)
// built from dilated causal convolutions (Eq. 25).
#ifndef URCL_NN_TCN_H_
#define URCL_NN_TCN_H_

#include "nn/module.h"

namespace urcl {
namespace nn {

class GatedTcn : public Module {
 public:
  GatedTcn(int64_t in_channels, int64_t out_channels, int64_t kernel_size, int64_t dilation,
           Rng& rng);

  // [B, C_in, N, T] -> [B, C_out, N, T - dilation*(kernel-1)]
  Variable Forward(const Variable& x) const;

  // Time steps consumed by the receptive field.
  int64_t TimeShrink() const { return dilation_ * (kernel_size_ - 1); }

  int64_t out_channels() const { return out_channels_; }

 private:
  int64_t in_channels_;
  int64_t out_channels_;
  int64_t kernel_size_;
  int64_t dilation_;
  Variable filter_weight_;  // [C_out, C_in, 1, K]
  Variable filter_bias_;    // [1, C_out, 1, 1]
  Variable gate_weight_;
  Variable gate_bias_;
};

}  // namespace nn
}  // namespace urcl

#endif  // URCL_NN_TCN_H_
