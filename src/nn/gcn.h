// Graph convolution layers: the diffusion GCN of DCRNN/GraphWaveNet
// (Eq. 21/22/24 of the paper) and the self-adaptive adjacency (Eq. 23).
#ifndef URCL_NN_GCN_H_
#define URCL_NN_GCN_H_

#include <memory>
#include <vector>

#include "nn/linear.h"
#include "nn/module.h"

namespace urcl {
namespace nn {

// Learns A_adp = Softmax(ReLU(E1 E2^T)) from two node embeddings (Eq. 23).
class AdaptiveAdjacency : public Module {
 public:
  AdaptiveAdjacency(int64_t num_nodes, int64_t embedding_dim, Rng& rng);

  // Returns the [N, N] row-stochastic adaptive adjacency.
  Variable Forward() const;

  int64_t num_nodes() const { return num_nodes_; }

 private:
  int64_t num_nodes_;
  Variable e1_;  // [N, d]
  Variable e2_;  // [d, N]
};

// Diffusion graph convolution over [B, C, N, T] inputs (Eq. 24):
//   f_G(X) = Linear_channel( [X, P1 X, P1^2 X, ..., Pm X, ..., Aadp X, ...] )
// where the Pi are fixed transition matrices (forward/backward random walks)
// and Aadp is an optional learned adjacency supplied per call.
class DiffusionGcn : public Module {
 public:
  // `num_static_supports` fixed supports and optionally one adaptive support
  // are each expanded to `max_diffusion_step` powers.
  DiffusionGcn(int64_t in_channels, int64_t out_channels, int64_t num_static_supports,
               bool use_adaptive, int64_t max_diffusion_step, Rng& rng);

  // x: [B, C_in, N, T]; supports: fixed [N, N] transition matrices (count
  // must equal num_static_supports); adaptive: [N, N] Variable or invalid.
  Variable Forward(const Variable& x, const std::vector<Tensor>& supports,
                   const Variable& adaptive) const;

  int64_t out_channels() const { return out_channels_; }

 private:
  int64_t in_channels_;
  int64_t out_channels_;
  int64_t num_static_supports_;
  bool use_adaptive_;
  int64_t max_diffusion_step_;
  std::unique_ptr<ChannelLinear> projection_;
};

// Multiplies a graph operator over the node axis: y = A · x where
// x is [B, C, N, T] and A is [N, N]. One graph_matmul op
// (autograd::NodeMatMul) in the encoder's own layout, with no transposes;
// the Variable overload lets gradients reach A, the constant overload wraps
// A as a non-trainable Variable.
Variable GraphMatMul(const Tensor& adjacency, const Variable& x);
Variable GraphMatMul(const Variable& adjacency, const Variable& x);

}  // namespace nn
}  // namespace urcl

#endif  // URCL_NN_GCN_H_
