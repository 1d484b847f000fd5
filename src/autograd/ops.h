// Differentiable operations over Variables. Every op is one Apply of its
// single definition in autograd/record.h: the forward kernel call computes
// the value, and the tape node records the op's kind and attributes, so
// Backward runs the op's gradient formula over the node, accumulating into
// the parents (reducing broadcast gradients back to the parent shapes). The
// compiled executor (src/exec/) replays the same two functions.
#ifndef URCL_AUTOGRAD_OPS_H_
#define URCL_AUTOGRAD_OPS_H_

#include <cstdint>
#include <vector>

#include "autograd/record.h"
#include "autograd/variable.h"

namespace urcl {
namespace autograd {

// Records op `kind` over `parents` on the tape: its forward value, the node's
// op record, and the capture hook. Every op function below is one call of
// this.
Variable Apply(record::OpKind kind, const std::vector<Variable>& parents,
               const record::OpAttrs& attrs = {});

// --- Arithmetic (broadcasting) ----------------------------------------------
Variable Add(const Variable& a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);
Variable Div(const Variable& a, const Variable& b);
Variable AddScalar(const Variable& a, float s);
Variable MulScalar(const Variable& a, float s);
Variable Neg(const Variable& a);

// --- Elementwise nonlinearities ------------------------------------------------
Variable Exp(const Variable& a);
Variable Log(const Variable& a);
Variable Sqrt(const Variable& a);
Variable Abs(const Variable& a);  // subgradient 0 at 0
Variable Tanh(const Variable& a);
Variable Sigmoid(const Variable& a);
Variable Relu(const Variable& a);
Variable Square(const Variable& a);

// --- Linear algebra ----------------------------------------------------------------
// Batched matmul [..., M, K] x [..., K, N] with batch broadcasting.
Variable MatMul(const Variable& a, const Variable& b);

// --- Reductions ------------------------------------------------------------------------
Variable Sum(const Variable& a, const std::vector<int64_t>& axes = {}, bool keepdims = false);
Variable Mean(const Variable& a, const std::vector<int64_t>& axes = {}, bool keepdims = false);

// --- Shape ---------------------------------------------------------------------------------
Variable Reshape(const Variable& a, const Shape& shape);
Variable Transpose(const Variable& a, const std::vector<int64_t>& perm);
Variable Slice(const Variable& a, const std::vector<int64_t>& starts,
               const std::vector<int64_t>& sizes);
Variable Concat(const std::vector<Variable>& parts, int64_t axis);
Variable Pad(const Variable& a, int64_t axis, int64_t before, int64_t after);
Variable BroadcastTo(const Variable& a, const Shape& target);

// --- Softmax / stop-gradient ---------------------------------------------------------------
Variable Softmax(const Variable& a, int64_t axis);

// Detaches `a` from the graph: forward value passes through (the same
// storage, no copy), gradient stops (the SimSiam stop-gradient operator SG(.)
// of Eq. 13).
Variable StopGradient(const Variable& a);

// --- Convolution -------------------------------------------------------------------------------
// 2-D convolution with kernel (1, K) and temporal dilation, as used by
// GraphWaveNet's gated TCN. Input [B, C_in, N, T], weight [C_out, C_in, 1, K];
// output [B, C_out, N, T - dilation*(K-1)] (no padding, stride 1).
Variable TemporalConv2d(const Variable& input, const Variable& weight, int64_t dilation);

// --- Graph convolution -------------------------------------------------------------------------
// The graph operator along the node axis: y[b, c, n, t] = sum over m of
// adjacency[n, m] * x[b, c, m, t], for adjacency [N, N] and x [B, C, N, T]
// (a diffusion-GCN support applied to its input, Eq. 21-24). Not named
// GraphMatMul: nn/ calls nn::GraphMatMul unqualified on Variables, and
// argument-dependent lookup would find an autograd overload too.
Variable NodeMatMul(const Variable& adjacency, const Variable& x);

// --- Operator sugar ----------------------------------------------------------------------------
inline Variable operator+(const Variable& a, const Variable& b) { return Add(a, b); }
inline Variable operator-(const Variable& a, const Variable& b) { return Sub(a, b); }
inline Variable operator*(const Variable& a, const Variable& b) { return Mul(a, b); }
inline Variable operator/(const Variable& a, const Variable& b) { return Div(a, b); }
inline Variable operator-(const Variable& a) { return Neg(a); }

}  // namespace autograd
}  // namespace urcl

#endif  // URCL_AUTOGRAD_OPS_H_
