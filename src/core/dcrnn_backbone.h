// RNN-based backbone in the style of DCRNN: a GRU whose gates are diffusion
// graph convolutions, unrolled over the M input steps.
#ifndef URCL_CORE_DCRNN_BACKBONE_H_
#define URCL_CORE_DCRNN_BACKBONE_H_

#include <memory>
#include <vector>

#include "core/backbone.h"
#include "nn/linear.h"

namespace urcl {
namespace core {

// Diffusion graph convolution for [B, N, F] node-feature tensors.
class NodeDiffusionConv : public nn::Module {
 public:
  NodeDiffusionConv(int64_t in_features, int64_t out_features, int64_t num_supports,
                    int64_t diffusion_steps, Rng& rng);

  // x: [B, N, F]; supports: [N, N] transition matrices.
  Variable Forward(const Variable& x, const std::vector<Tensor>& supports) const;

 private:
  int64_t in_features_;
  int64_t diffusion_steps_;
  int64_t num_supports_;
  std::unique_ptr<nn::Linear> projection_;
};

class DcrnnEncoder : public StBackbone {
 public:
  DcrnnEncoder(const BackboneConfig& config, Rng& rng);

  Variable Encode(const Variable& observations, const Tensor& adjacency) const override;

  int64_t latent_channels() const override { return config_.latent_channels; }
  int64_t latent_time() const override { return 1; }
  std::string name() const override { return "DCRNN"; }

 private:
  BackboneConfig config_;
  std::unique_ptr<NodeDiffusionConv> update_gate_;
  std::unique_ptr<NodeDiffusionConv> reset_gate_;
  std::unique_ptr<NodeDiffusionConv> candidate_;
  std::unique_ptr<nn::Linear> output_projection_;
};

}  // namespace core
}  // namespace urcl

#endif  // URCL_CORE_DCRNN_BACKBONE_H_
