// The GraphWaveNet-style STEncoder (Fig. 3): an input MLP followed by
// stacked spatio-temporal layers, each a Gated TCN (Eq. 26) feeding a
// diffusion GCN (Eq. 24) with a residual connection, and a final projection
// to the latent width.
#ifndef URCL_CORE_STENCODER_H_
#define URCL_CORE_STENCODER_H_

#include <memory>
#include <vector>

#include "core/backbone.h"
#include "nn/gcn.h"
#include "nn/linear.h"
#include "nn/tcn.h"

namespace urcl {
namespace core {

class GraphWaveNetEncoder : public StBackbone {
 public:
  GraphWaveNetEncoder(const BackboneConfig& config, Rng& rng);

  Variable Encode(const Variable& observations, const Tensor& adjacency) const override;

  int64_t latent_channels() const override { return config_.latent_channels; }
  int64_t latent_time() const override { return latent_time_; }
  std::string name() const override { return "GraphWaveNet"; }

  const std::vector<int64_t>& dilations() const { return dilations_; }

 private:
  BackboneConfig config_;
  std::vector<int64_t> dilations_;
  int64_t latent_time_ = 0;
  std::unique_ptr<nn::ChannelLinear> input_projection_;
  std::vector<std::unique_ptr<nn::GatedTcn>> tcn_layers_;
  std::vector<std::unique_ptr<nn::DiffusionGcn>> gcn_layers_;
  std::unique_ptr<nn::AdaptiveAdjacency> adaptive_;
  std::unique_ptr<nn::ChannelLinear> output_projection_;
};

}  // namespace core
}  // namespace urcl

#endif  // URCL_CORE_STENCODER_H_
