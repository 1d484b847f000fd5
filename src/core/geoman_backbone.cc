#include "core/geoman_backbone.h"

#include <cmath>

#include "autograd/ops.h"
#include "common/check.h"

namespace urcl {
namespace core {

namespace ag = ::urcl::autograd;

GeomanEncoder::GeomanEncoder(const BackboneConfig& config, Rng& rng) : config_(config) {
  const int64_t h = config.hidden_channels;
  input_projection_ = std::make_unique<nn::Linear>(config.in_channels, h, rng);
  RegisterChild("input_projection", input_projection_.get());
  query_ = std::make_unique<nn::Linear>(h, h, rng, /*bias=*/false);
  RegisterChild("query", query_.get());
  key_ = std::make_unique<nn::Linear>(h, h, rng, /*bias=*/false);
  RegisterChild("key", key_.get());
  value_ = std::make_unique<nn::Linear>(h, h, rng, /*bias=*/false);
  RegisterChild("value", value_.get());
  temporal_score_hidden_ = std::make_unique<nn::Linear>(h, h, rng);
  RegisterChild("temporal_score_hidden", temporal_score_hidden_.get());
  temporal_score_out_ = std::make_unique<nn::Linear>(h, 1, rng);
  RegisterChild("temporal_score_out", temporal_score_out_.get());
  output_projection_ = std::make_unique<nn::Linear>(2 * h, config.latent_channels, rng);
  RegisterChild("output_projection", output_projection_.get());
}

Variable GeomanEncoder::Encode(const Variable& observations, const Tensor& adjacency) const {
  URCL_CHECK_EQ(observations.shape().rank(), 4) << "expected [B, M, N, C]";
  (void)adjacency;  // attention learns spatial structure directly
  const int64_t batch = observations.shape().dim(0);
  const int64_t steps = observations.shape().dim(1);
  const int64_t nodes = observations.shape().dim(2);
  URCL_CHECK_EQ(nodes, config_.num_nodes);
  const int64_t h = config_.hidden_channels;

  // Project features: [B, M, N, C] -> [B, M, N, H].
  Variable x = input_projection_->Forward(observations);

  // Spatial self-attention over the node axis, per (batch, step).
  Variable q = query_->Forward(x);
  Variable k = key_->Forward(x);
  Variable v = value_->Forward(x);
  const float scale = 1.0f / std::sqrt(static_cast<float>(h));
  // scores: [B, M, N, N]
  Variable scores = ag::MulScalar(ag::MatMul(q, ag::Transpose(k, {0, 1, 3, 2})), scale);
  Variable attn = ag::Softmax(scores, -1);
  Variable spatial = ag::MatMul(attn, v);  // [B, M, N, H]
  // Residual connection keeps per-node identity information.
  Variable mixed = ag::Add(x, spatial);

  // Temporal attention pooling: per node, weight the M steps.
  // [B, M, N, H] -> [B, N, M, H]
  Variable per_node = ag::Transpose(mixed, {0, 2, 1, 3});
  Variable score_hidden = ag::Tanh(temporal_score_hidden_->Forward(per_node));
  Variable logits = temporal_score_out_->Forward(score_hidden);  // [B, N, M, 1]
  Variable weights = ag::Softmax(ag::Reshape(logits, Shape{batch, nodes, steps}), -1);
  weights = ag::Reshape(weights, Shape{batch, nodes, steps, 1});
  Variable pooled = ag::Sum(ag::Mul(per_node, weights), {2});  // [B, N, H]

  // Recency anchor: concatenate the last time step's features so the
  // decoder always sees the most recent observation directly.
  Variable last = ag::Reshape(
      ag::Slice(mixed, {0, steps - 1, 0, 0}, {batch, 1, nodes, h}),
      Shape{batch, nodes, h});
  Variable context = ag::Concat({pooled, last}, -1);  // [B, N, 2H]

  // [B, N, 2H] -> [B, N, L] -> [B, L, N, 1]
  Variable latent = output_projection_->Forward(context);
  latent = ag::Transpose(latent, {0, 2, 1});
  return ag::Reshape(latent, Shape{batch, config_.latent_channels, nodes, 1});
}

}  // namespace core
}  // namespace urcl
