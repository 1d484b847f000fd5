#include "core/stencoder.h"

#include "autograd/ops.h"
#include "common/check.h"
#include "graph/transition.h"

namespace urcl {
namespace core {

namespace ag = ::urcl::autograd;

GraphWaveNetEncoder::GraphWaveNetEncoder(const BackboneConfig& config, Rng& rng)
    : config_(config) {
  URCL_CHECK_GT(config.num_nodes, 0);
  URCL_CHECK_GT(config.num_layers, 0);
  URCL_CHECK_GT(config.input_steps, config.num_layers)
      << "input window must exceed the number of ST layers";

  input_projection_ =
      std::make_unique<nn::ChannelLinear>(config.in_channels, config.hidden_channels, rng);
  RegisterChild("input_projection", input_projection_.get());

  // Dilations cycle through {1, 2, 4} while the remaining time budget allows;
  // each layer consumes dilation * (kernel-1) = dilation steps (kernel 2).
  int64_t remaining = config.input_steps - 1;  // keep at least one output step
  const int64_t cycle[3] = {1, 2, 4};
  const int64_t num_static_supports =
      config.use_static_supports ? (config.directed_graph ? 2 : 1) : 0;
  URCL_CHECK(config.use_static_supports || config.use_adaptive_adjacency)
      << "encoder needs at least one of static supports / adaptive adjacency";
  for (int64_t layer = 0; layer < config.num_layers; ++layer) {
    int64_t dilation = cycle[layer % 3];
    const int64_t layers_left = config.num_layers - layer - 1;
    // Every later layer needs at least 1 step of budget.
    while (dilation > remaining - layers_left && dilation > 1) dilation /= 2;
    URCL_CHECK_GE(remaining - layers_left, 1)
        << "input_steps too small for " << config.num_layers << " layers";
    dilations_.push_back(dilation);
    remaining -= dilation;

    tcn_layers_.push_back(std::make_unique<nn::GatedTcn>(
        config.hidden_channels, config.hidden_channels, /*kernel_size=*/2, dilation, rng));
    RegisterChild("tcn" + std::to_string(layer), tcn_layers_.back().get());
    gcn_layers_.push_back(std::make_unique<nn::DiffusionGcn>(
        config.hidden_channels, config.hidden_channels, num_static_supports,
        config.use_adaptive_adjacency, kDiffusionSteps, rng));
    RegisterChild("gcn" + std::to_string(layer), gcn_layers_.back().get());
  }
  latent_time_ = remaining + 1;

  if (config.use_adaptive_adjacency) {
    adaptive_ = std::make_unique<nn::AdaptiveAdjacency>(config.num_nodes,
                                                        config.adaptive_embedding_dim, rng);
    RegisterChild("adaptive", adaptive_.get());
  }

  output_projection_ =
      std::make_unique<nn::ChannelLinear>(config.hidden_channels, config.latent_channels, rng);
  RegisterChild("output_projection", output_projection_.get());
}

Variable GraphWaveNetEncoder::Encode(const Variable& observations,
                                     const Tensor& adjacency) const {
  URCL_CHECK_EQ(observations.shape().rank(), 4) << "expected [B, M, N, C]";
  URCL_CHECK_EQ(observations.shape().dim(1), config_.input_steps);
  URCL_CHECK_EQ(observations.shape().dim(2), config_.num_nodes);
  URCL_CHECK_EQ(observations.shape().dim(3), config_.in_channels);

  std::vector<Tensor> supports;
  if (config_.use_static_supports) {
    supports = graph::BuildSupportsDense(adjacency, config_.directed_graph);
  }
  Variable adaptive;  // invalid unless enabled
  if (config_.use_adaptive_adjacency) adaptive = adaptive_->Forward();

  // [B, M, N, C] -> [B, C, N, M]
  Variable h = ag::Transpose(observations, {0, 3, 2, 1});
  h = input_projection_->Forward(h);

  for (size_t layer = 0; layer < tcn_layers_.size(); ++layer) {
    Variable temporal = tcn_layers_[layer]->Forward(h);
    Variable spatial = gcn_layers_[layer]->Forward(temporal, supports, adaptive);
    // Residual: align the input in time by slicing off the consumed prefix.
    const int64_t t_out = spatial.shape().dim(3);
    const int64_t t_in = h.shape().dim(3);
    Variable residual = ag::Slice(
        h, {0, 0, 0, t_in - t_out},
        {h.shape().dim(0), h.shape().dim(1), h.shape().dim(2), t_out});
    h = ag::Add(spatial, residual);
  }

  return output_projection_->Forward(ag::Relu(h));
}

}  // namespace core
}  // namespace urcl
