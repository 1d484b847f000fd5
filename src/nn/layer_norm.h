// Layer normalization over the channel axis of [B, C, N, T] feature maps
// (the normalization GraphWaveNet applies after each spatio-temporal layer;
// layer- rather than batch-normalization because streaming minibatches are
// small and non-i.i.d.).
#ifndef URCL_NN_LAYER_NORM_H_
#define URCL_NN_LAYER_NORM_H_

#include "nn/module.h"

namespace urcl {
namespace nn {

class LayerNorm : public Module {
 public:
  LayerNorm(int64_t num_channels, Rng& rng, float epsilon = 1e-5f);

  // Normalizes each (b, n, t) position's channel vector to zero mean / unit
  // variance, then applies the learned per-channel affine transform.
  Variable Forward(const Variable& x) const;

  int64_t num_channels() const { return num_channels_; }

 private:
  int64_t num_channels_;
  float epsilon_;
  Variable gamma_;  // [1, C, 1, 1]
  Variable beta_;   // [1, C, 1, 1]
};

}  // namespace nn
}  // namespace urcl

#endif  // URCL_NN_LAYER_NORM_H_
