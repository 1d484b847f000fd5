#include "core/dcrnn_backbone.h"

#include "autograd/ops.h"
#include "common/check.h"
#include "graph/transition.h"

namespace urcl {
namespace core {

namespace ag = ::urcl::autograd;

NodeDiffusionConv::NodeDiffusionConv(int64_t in_features, int64_t out_features,
                                     int64_t num_supports, int64_t diffusion_steps, Rng& rng)
    : in_features_(in_features),
      diffusion_steps_(diffusion_steps),
      num_supports_(num_supports) {
  URCL_CHECK_GE(diffusion_steps, 1);
  URCL_CHECK_GE(num_supports, 1);
  const int64_t num_terms = 1 + num_supports * diffusion_steps;
  projection_ = std::make_unique<nn::Linear>(in_features * num_terms, out_features, rng);
  RegisterChild("projection", projection_.get());
}

Variable NodeDiffusionConv::Forward(const Variable& x,
                                    const std::vector<Tensor>& supports) const {
  URCL_CHECK_EQ(x.shape().rank(), 3) << "NodeDiffusionConv expects [B, N, F]";
  URCL_CHECK_EQ(x.shape().dim(2), in_features_);
  URCL_CHECK_EQ(static_cast<int64_t>(supports.size()), num_supports_);
  std::vector<Variable> terms;
  terms.push_back(x);
  for (const Tensor& support : supports) {
    Variable hop = x;
    Variable p(support, /*requires_grad=*/false);
    for (int64_t k = 0; k < diffusion_steps_; ++k) {
      hop = ag::MatMul(p, hop);  // [N, N] x [B, N, F] -> [B, N, F]
      terms.push_back(hop);
    }
  }
  return projection_->Forward(ag::Concat(terms, /*axis=*/-1));
}

DcrnnEncoder::DcrnnEncoder(const BackboneConfig& config, Rng& rng) : config_(config) {
  const int64_t num_supports = config.directed_graph ? 2 : 1;
  const int64_t gate_in = config.in_channels + config.hidden_channels;
  update_gate_ = std::make_unique<NodeDiffusionConv>(gate_in, config.hidden_channels,
                                                     num_supports, config.diffusion_steps, rng);
  RegisterChild("update_gate", update_gate_.get());
  reset_gate_ = std::make_unique<NodeDiffusionConv>(gate_in, config.hidden_channels,
                                                    num_supports, config.diffusion_steps, rng);
  RegisterChild("reset_gate", reset_gate_.get());
  candidate_ = std::make_unique<NodeDiffusionConv>(gate_in, config.hidden_channels,
                                                   num_supports, config.diffusion_steps, rng);
  RegisterChild("candidate", candidate_.get());
  output_projection_ =
      std::make_unique<nn::Linear>(config.hidden_channels, config.latent_channels, rng);
  RegisterChild("output_projection", output_projection_.get());
}

Variable DcrnnEncoder::Encode(const Variable& observations, const Tensor& adjacency) const {
  URCL_CHECK_EQ(observations.shape().rank(), 4) << "expected [B, M, N, C]";
  const int64_t batch = observations.shape().dim(0);
  const int64_t steps = observations.shape().dim(1);
  const int64_t nodes = observations.shape().dim(2);
  const int64_t channels = observations.shape().dim(3);
  URCL_CHECK_EQ(nodes, config_.num_nodes);
  URCL_CHECK_EQ(channels, config_.in_channels);

  const std::vector<Tensor> supports =
      graph::BuildSupportsDense(adjacency, config_.directed_graph);

  Variable h(Tensor::Zeros(Shape{batch, nodes, config_.hidden_channels}),
             /*requires_grad=*/false);
  for (int64_t t = 0; t < steps; ++t) {
    Variable x_t = ag::Reshape(
        ag::Slice(observations, {0, t, 0, 0}, {batch, 1, nodes, channels}),
        Shape{batch, nodes, channels});
    Variable xh = ag::Concat({x_t, h}, -1);
    Variable u = ag::Sigmoid(update_gate_->Forward(xh, supports));
    Variable r = ag::Sigmoid(reset_gate_->Forward(xh, supports));
    Variable x_rh = ag::Concat({x_t, ag::Mul(r, h)}, -1);
    Variable c = ag::Tanh(candidate_->Forward(x_rh, supports));
    // h = u * h + (1 - u) * c
    Variable one_minus_u = ag::AddScalar(ag::Neg(u), 1.0f);
    h = ag::Add(ag::Mul(u, h), ag::Mul(one_minus_u, c));
  }

  // [B, N, H] -> project -> [B, N, L] -> [B, L, N, 1]
  Variable latent = output_projection_->Forward(h);
  latent = ag::Transpose(latent, {0, 2, 1});
  return ag::Reshape(latent,
                     Shape{batch, config_.latent_channels, nodes, 1});
}

}  // namespace core
}  // namespace urcl
