// Pure functions over Tensor. Every op allocates a fresh output tensor;
// inputs are never mutated. Binary elementwise ops follow NumPy broadcasting.
//
// Execution model: the hot kernels (elementwise binaries, reductions, MatMul,
// GraphMatMul, TemporalConv2d, the strided copies behind Transpose/Slice/
// UnSlice/Concat/Pad) are data-parallel via runtime::ParallelFor with
// shape-derived chunking — results are bitwise identical at any thread count.
// Ops never spawn threads directly (see runtime/parallel.h).
#ifndef URCL_TENSOR_TENSOR_OPS_H_
#define URCL_TENSOR_TENSOR_OPS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/elementwise.h"
#include "tensor/tensor.h"

namespace urcl {
namespace ops {

// --- Elementwise binary (broadcasting) --------------------------------------
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
Tensor Maximum(const Tensor& a, const Tensor& b);
Tensor Minimum(const Tensor& a, const Tensor& b);

// --- Elementwise with scalar -------------------------------------------------
Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);
Tensor PowScalar(const Tensor& a, float exponent);

// --- Elementwise unary --------------------------------------------------------
Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);
Tensor Sqrt(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Sign(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor Square(const Tensor& a);
Tensor Clamp(const Tensor& a, float lo, float hi);
// Applies an arbitrary unary functor elementwise, inlined into the kernel
// (no per-element dispatch).
template <typename Fn>
Tensor Map(const Tensor& a, Fn fn) {
  return detail::UnaryElementwise(a, std::move(fn));
}

// --- Reductions ----------------------------------------------------------------
// Reduce over `axes` (empty = all axes). With keepdims the reduced axes stay
// as size-1 dims, otherwise they are removed.
Tensor Sum(const Tensor& a, const std::vector<int64_t>& axes = {}, bool keepdims = false);
Tensor Mean(const Tensor& a, const std::vector<int64_t>& axes = {}, bool keepdims = false);
Tensor Max(const Tensor& a, const std::vector<int64_t>& axes = {}, bool keepdims = false);
Tensor Min(const Tensor& a, const std::vector<int64_t>& axes = {}, bool keepdims = false);

// Output shape of those reductions of `shape` over `axes` (empty = all axes;
// negative axes count from the back). Aborts on an out-of-range axis.
Shape ReducedShape(const Shape& shape, const std::vector<int64_t>& axes, bool keepdims);

// Sums `a` down so the result has shape `target` (inverse of broadcasting).
Tensor ReduceTo(const Tensor& a, const Shape& target);

// --- Linear algebra --------------------------------------------------------------
// Batched matrix multiply: [..., M, K] x [..., K, N] -> [..., M, N] with
// broadcasting over the leading batch dims.
Tensor MatMul(const Tensor& a, const Tensor& b);

// Graph operator along the node axis of the encoder's [B, C, N, T] layout:
// y[b, c, n, t] = sum over m of adjacency[n, m] * x[b, c, m, t], with
// adjacency [N, N]. Each output sums its products in increasing m from +0,
// skipping zero x entries: the bits of MatMul over x transposed to
// [B, C, T, N] times the transposed adjacency, transposed back.
Tensor GraphMatMul(const Tensor& adjacency, const Tensor& x);

// Gradient kernel for GraphMatMul; `g` is the upstream gradient
// [B, C, N, T]. Writes *d_adjacency ([N, N]) and *d_x ([B, C, N, T]), which
// must have those shapes; either pointer may be null, and that gradient is
// then not computed. d_x[b, c, m, t] sums g[b, c, n, t] * adjacency[n, m] in
// increasing n from +0, skipping zero g entries. d_adjacency[n, m] sums over
// the (b, c) planes in order, from +0, each plane's sum over t of
// x[b, c, m, t] * g[b, c, n, t] (increasing t from +0, zero x skipped): the
// batch sum ReduceTo would take of the per-plane MatMul, without
// materialising the [B, C, N, N] products.
void GraphMatMulBackward(const Tensor& g, const Tensor& adjacency, const Tensor& x,
                         Tensor* d_adjacency, Tensor* d_x);

// 2-D convolution with kernel (1, K) and temporal dilation, as used by the
// GraphWaveNet gated TCN. Input [B, C_in, N, T], weight [C_out, C_in, 1, K];
// output [B, C_out, N, T - dilation*(K-1)] (no padding, stride 1). The one
// forward kernel of the temporal_conv2d op: record::OpForward calls it for
// the tape and the compiled plan alike, so both are bitwise identical by
// construction.
Tensor TemporalConv2d(const Tensor& input, const Tensor& weight, int64_t dilation);

// Gradient kernel for TemporalConv2d, called by the op's record::OpBackward
// for the tape and the compiled plan alike. Accumulates (+=) into *d_in
// ([B, Ci, N, T]) and *d_w ([Co, Ci, 1, K]), which the caller must have
// zero-initialized; `g` is the upstream gradient [B, Co, N, T_out]. Either
// pointer may be null, and that gradient is then not computed.
void TemporalConv2dBackward(const Tensor& g, const Tensor& input, const Tensor& weight,
                            int64_t dilation, Tensor* d_in, Tensor* d_w);

// --- Shape manipulation ------------------------------------------------------------
Tensor BroadcastTo(const Tensor& a, const Shape& target);
Tensor Transpose(const Tensor& a, const std::vector<int64_t>& perm);
// Swaps the last two axes (matrix transpose for batched matrices).
Tensor TransposeLast2(const Tensor& a);
Tensor Slice(const Tensor& a, const std::vector<int64_t>& starts,
             const std::vector<int64_t>& sizes);
// Writes `src` into a zero tensor of shape `full` at offset `starts`
// (adjoint of Slice; used by autograd).
Tensor UnSlice(const Tensor& src, const Shape& full, const std::vector<int64_t>& starts);
Tensor Concat(const std::vector<Tensor>& tensors, int64_t axis);
Tensor Stack(const std::vector<Tensor>& tensors, int64_t axis);
// Pads `axis` with `before`/`after` zeros (constant value `value`).
Tensor Pad(const Tensor& a, int64_t axis, int64_t before, int64_t after, float value = 0.0f);
// Reverses the order of entries along `axis` (used by time flipping).
Tensor Flip(const Tensor& a, int64_t axis);

// --- Softmax-family -------------------------------------------------------------------
Tensor Softmax(const Tensor& a, int64_t axis);

// --- Comparisons / diagnostics ----------------------------------------------------------
bool AllClose(const Tensor& a, const Tensor& b, float atol = 1e-5f, float rtol = 1e-4f);
float MaxAbsDiff(const Tensor& a, const Tensor& b);
bool AllFinite(const Tensor& a);

}  // namespace ops
}  // namespace urcl

#endif  // URCL_TENSOR_TENSOR_OPS_H_
