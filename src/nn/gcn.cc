#include "nn/gcn.h"

#include "autograd/ops.h"
#include "common/check.h"
#include "nn/init.h"

namespace urcl {
namespace nn {

namespace ag = ::urcl::autograd;

AdaptiveAdjacency::AdaptiveAdjacency(int64_t num_nodes, int64_t embedding_dim, Rng& rng)
    : num_nodes_(num_nodes) {
  URCL_CHECK_GT(num_nodes, 0);
  URCL_CHECK_GT(embedding_dim, 0);
  e1_ = RegisterParameter("e1",
                          Tensor::RandomNormal(Shape{num_nodes, embedding_dim}, rng, 0.0f, 0.1f));
  e2_ = RegisterParameter("e2",
                          Tensor::RandomNormal(Shape{embedding_dim, num_nodes}, rng, 0.0f, 0.1f));
}

Variable AdaptiveAdjacency::Forward() const {
  return ag::Softmax(ag::Relu(ag::MatMul(e1_, e2_)), /*axis=*/-1);
}

Variable GraphMatMul(const Tensor& adjacency, const Variable& x) {
  // Wrap the constant adjacency as a non-trainable Variable; gradient flow to
  // it is pruned automatically.
  return GraphMatMul(Variable(adjacency, /*requires_grad=*/false), x);
}

Variable GraphMatMul(const Variable& adjacency, const Variable& x) {
  return ag::NodeMatMul(adjacency, x);
}

DiffusionGcn::DiffusionGcn(int64_t in_channels, int64_t out_channels,
                           int64_t num_static_supports, bool use_adaptive,
                           int64_t max_diffusion_step, Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      num_static_supports_(num_static_supports),
      use_adaptive_(use_adaptive),
      max_diffusion_step_(max_diffusion_step) {
  URCL_CHECK_GE(num_static_supports, 0);
  URCL_CHECK_GE(max_diffusion_step, 1);
  const int64_t num_supports = num_static_supports + (use_adaptive ? 1 : 0);
  URCL_CHECK_GT(num_supports, 0) << "DiffusionGcn needs at least one support";
  const int64_t num_terms = 1 + num_supports * max_diffusion_step;
  projection_ = std::make_unique<ChannelLinear>(in_channels * num_terms, out_channels, rng);
  RegisterChild("projection", projection_.get());
}

Variable DiffusionGcn::Forward(const Variable& x, const std::vector<Tensor>& supports,
                               const Variable& adaptive) const {
  URCL_CHECK_EQ(static_cast<int64_t>(supports.size()), num_static_supports_)
      << "DiffusionGcn configured for " << num_static_supports_ << " supports";
  URCL_CHECK_EQ(adaptive.IsValid(), use_adaptive_)
      << "DiffusionGcn adaptive-support usage does not match configuration";
  URCL_CHECK_EQ(x.shape().dim(1), in_channels_);

  std::vector<Variable> terms;
  terms.push_back(x);  // k = 0 identity term
  for (const Tensor& support : supports) {
    Variable hop = x;
    for (int64_t k = 0; k < max_diffusion_step_; ++k) {
      hop = GraphMatMul(support, hop);
      terms.push_back(hop);
    }
  }
  if (use_adaptive_) {
    Variable hop = x;
    for (int64_t k = 0; k < max_diffusion_step_; ++k) {
      hop = GraphMatMul(adaptive, hop);
      terms.push_back(hop);
    }
  }
  // Concatenate diffusion terms on the channel axis, then 1x1-project.
  Variable stacked = ag::Concat(terms, /*axis=*/1);
  return projection_->Forward(stacked);
}

}  // namespace nn
}  // namespace urcl
