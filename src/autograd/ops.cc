#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "autograd/record.h"
#include "common/check.h"
#include "obs/profiler.h"
#include "runtime/parallel.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"

namespace urcl {
namespace autograd {

namespace top = ::urcl::ops;

namespace {

// Capture hook shared by every op function: one branch when no listener is
// installed (the steady-state tape path), a recorder callback when the
// compiled executor is capturing this forward build (autograd/record.h).
inline void Note(record::OpKind kind, const Variable& out,
                 std::initializer_list<const Variable*> parents,
                 const record::OpAttrs& attrs = {}) {
  if (record::TapeListener* rec = record::ActiveListener()) rec->OnOp(kind, out, parents, attrs);
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  URCL_PROFILE_OP();
  Tensor value = top::Add(a.value(), b.value());
  Variable out = Variable::MakeOp(std::move(value), "add", {a, b}, [a, b](const Tensor& g) {
    if (a.requires_grad()) a.AccumulateGrad(top::ReduceTo(g, a.shape()));
    if (b.requires_grad()) b.AccumulateGrad(top::ReduceTo(g, b.shape()));
  });
  Note(record::OpKind::kAdd, out, {&a, &b});
  return out;
}

Variable Sub(const Variable& a, const Variable& b) {
  URCL_PROFILE_OP();
  Tensor value = top::Sub(a.value(), b.value());
  Variable out = Variable::MakeOp(std::move(value), "sub", {a, b}, [a, b](const Tensor& g) {
    if (a.requires_grad()) a.AccumulateGrad(top::ReduceTo(g, a.shape()));
    if (b.requires_grad()) b.AccumulateGrad(top::ReduceTo(top::Neg(g), b.shape()));
  });
  Note(record::OpKind::kSub, out, {&a, &b});
  return out;
}

Variable Mul(const Variable& a, const Variable& b) {
  URCL_PROFILE_OP();
  Tensor value = top::Mul(a.value(), b.value());
  Variable out = Variable::MakeOp(std::move(value), "mul", {a, b}, [a, b](const Tensor& g) {
    if (a.requires_grad()) a.AccumulateGrad(top::ReduceTo(top::Mul(g, b.value()), a.shape()));
    if (b.requires_grad()) b.AccumulateGrad(top::ReduceTo(top::Mul(g, a.value()), b.shape()));
  });
  Note(record::OpKind::kMul, out, {&a, &b});
  return out;
}

Variable Div(const Variable& a, const Variable& b) {
  URCL_PROFILE_OP();
  Tensor value = top::Div(a.value(), b.value());
  Variable out = Variable::MakeOp(std::move(value), "div", {a, b}, [a, b](const Tensor& g) {
    if (a.requires_grad()) a.AccumulateGrad(top::ReduceTo(top::Div(g, b.value()), a.shape()));
    if (b.requires_grad()) {
      const Tensor b2 = top::Square(b.value());
      const Tensor db = top::Neg(top::Div(top::Mul(g, a.value()), b2));
      b.AccumulateGrad(top::ReduceTo(db, b.shape()));
    }
  });
  Note(record::OpKind::kDiv, out, {&a, &b});
  return out;
}

Variable AddScalar(const Variable& a, float s) {
  URCL_PROFILE_OP();
  Variable out = Variable::MakeOp(top::AddScalar(a.value(), s), "add_scalar", {a},
                                  [a](const Tensor& g) { a.AccumulateGrad(g); });
  record::OpAttrs attrs;
  attrs.scalar = s;
  Note(record::OpKind::kAddScalar, out, {&a}, attrs);
  return out;
}

Variable MulScalar(const Variable& a, float s) {
  URCL_PROFILE_OP();
  Variable out = Variable::MakeOp(top::MulScalar(a.value(), s), "mul_scalar", {a},
                                  [a, s](const Tensor& g) {
                                    a.AccumulateGrad(top::MulScalar(g, s));
                                  });
  record::OpAttrs attrs;
  attrs.scalar = s;
  Note(record::OpKind::kMulScalar, out, {&a}, attrs);
  return out;
}

Variable Neg(const Variable& a) { return MulScalar(a, -1.0f); }

Variable Exp(const Variable& a) {
  URCL_PROFILE_OP();
  Tensor value = top::Exp(a.value());
  const Tensor saved = value;
  Variable out = Variable::MakeOp(std::move(value), "exp", {a}, [a, saved](const Tensor& g) {
    a.AccumulateGrad(top::Mul(g, saved));
  });
  Note(record::OpKind::kExp, out, {&a});
  return out;
}

Variable Log(const Variable& a) {
  URCL_PROFILE_OP();
  Tensor value = top::Log(a.value());
  Variable out = Variable::MakeOp(std::move(value), "log", {a}, [a](const Tensor& g) {
    a.AccumulateGrad(top::Div(g, a.value()));
  });
  Note(record::OpKind::kLog, out, {&a});
  return out;
}

Variable Sqrt(const Variable& a) {
  URCL_PROFILE_OP();
  Tensor value = top::Sqrt(a.value());
  const Tensor saved = value;
  Variable out = Variable::MakeOp(std::move(value), "sqrt", {a}, [a, saved](const Tensor& g) {
    a.AccumulateGrad(top::Div(g, top::MulScalar(saved, 2.0f)));
  });
  Note(record::OpKind::kSqrt, out, {&a});
  return out;
}

Variable Abs(const Variable& a) {
  URCL_PROFILE_OP();
  Tensor value = top::Abs(a.value());
  Variable out = Variable::MakeOp(std::move(value), "abs", {a}, [a](const Tensor& g) {
    a.AccumulateGrad(top::Mul(g, top::Sign(a.value())));
  });
  Note(record::OpKind::kAbs, out, {&a});
  return out;
}

Variable Tanh(const Variable& a) {
  URCL_PROFILE_OP();
  Tensor value = top::Tanh(a.value());
  const Tensor saved = value;
  Variable out = Variable::MakeOp(std::move(value), "tanh", {a}, [a, saved](const Tensor& g) {
    // d/dx tanh = 1 - tanh^2
    const Tensor one_minus = top::AddScalar(top::Neg(top::Square(saved)), 1.0f);
    a.AccumulateGrad(top::Mul(g, one_minus));
  });
  Note(record::OpKind::kTanh, out, {&a});
  return out;
}

Variable Sigmoid(const Variable& a) {
  URCL_PROFILE_OP();
  Tensor value = top::Sigmoid(a.value());
  const Tensor saved = value;
  Variable out = Variable::MakeOp(std::move(value), "sigmoid", {a},
                                  [a, saved](const Tensor& g) {
                                    // d/dx sigmoid = s * (1 - s)
                                    const Tensor ds =
                                        top::Mul(saved, top::AddScalar(top::Neg(saved), 1.0f));
                                    a.AccumulateGrad(top::Mul(g, ds));
                                  });
  Note(record::OpKind::kSigmoid, out, {&a});
  return out;
}

Variable Relu(const Variable& a) {
  URCL_PROFILE_OP();
  Tensor value = top::Relu(a.value());
  Variable out = Variable::MakeOp(std::move(value), "relu", {a}, [a](const Tensor& g) {
    const Tensor mask =
        top::Map(a.value(), [](float x) { return x > 0.0f ? 1.0f : 0.0f; });
    a.AccumulateGrad(top::Mul(g, mask));
  });
  Note(record::OpKind::kRelu, out, {&a});
  return out;
}

Variable LeakyRelu(const Variable& a, float negative_slope) {
  URCL_PROFILE_OP();
  Tensor value = top::Map(a.value(), [negative_slope](float x) {
    return x > 0.0f ? x : negative_slope * x;
  });
  Variable out = Variable::MakeOp(
      std::move(value), "leaky_relu", {a}, [a, negative_slope](const Tensor& g) {
        const Tensor mask = top::Map(a.value(), [negative_slope](float x) {
          return x > 0.0f ? 1.0f : negative_slope;
        });
        a.AccumulateGrad(top::Mul(g, mask));
      });
  record::OpAttrs attrs;
  attrs.scalar = negative_slope;
  Note(record::OpKind::kLeakyRelu, out, {&a}, attrs);
  return out;
}

Variable Square(const Variable& a) {
  URCL_PROFILE_OP();
  Tensor value = top::Square(a.value());
  Variable out = Variable::MakeOp(std::move(value), "square", {a}, [a](const Tensor& g) {
    a.AccumulateGrad(top::Mul(g, top::MulScalar(a.value(), 2.0f)));
  });
  Note(record::OpKind::kSquare, out, {&a});
  return out;
}

Variable MatMul(const Variable& a, const Variable& b) {
  URCL_PROFILE_OP();
  Tensor value = top::MatMul(a.value(), b.value());
  Variable out = Variable::MakeOp(std::move(value), "matmul", {a, b}, [a, b](const Tensor& g) {
    if (a.requires_grad()) {
      a.AccumulateGrad(top::ReduceTo(top::MatMul(g, top::TransposeLast2(b.value())), a.shape()));
    }
    if (b.requires_grad()) {
      b.AccumulateGrad(top::ReduceTo(top::MatMul(top::TransposeLast2(a.value()), g), b.shape()));
    }
  });
  Note(record::OpKind::kMatMul, out, {&a, &b});
  return out;
}

namespace {

// Shape of a reduction result with keepdims=true, for re-broadcast in backward.
Shape KeepdimsShape(const Shape& in, const std::vector<int64_t>& axes) {
  std::vector<int64_t> dims = in.dims();
  if (axes.empty()) {
    for (auto& d : dims) d = 1;
  } else {
    for (const int64_t axis : axes) dims[static_cast<size_t>(in.CanonicalAxis(axis))] = 1;
  }
  return Shape(dims);
}

}  // namespace

Variable Sum(const Variable& a, const std::vector<int64_t>& axes, bool keepdims) {
  URCL_PROFILE_OP();
  Tensor value = top::Sum(a.value(), axes, keepdims);
  const Shape kept = KeepdimsShape(a.shape(), axes);
  Variable out = Variable::MakeOp(std::move(value), "sum", {a},
                                  [a, kept](const Tensor& g) {
                                    a.AccumulateGrad(top::BroadcastTo(g.Reshape(kept), a.shape()));
                                  });
  record::OpAttrs attrs;
  attrs.ints = axes;
  attrs.flag = keepdims;
  Note(record::OpKind::kSum, out, {&a}, attrs);
  return out;
}

Variable Mean(const Variable& a, const std::vector<int64_t>& axes, bool keepdims) {
  URCL_PROFILE_OP();
  Tensor value = top::Mean(a.value(), axes, keepdims);
  const Shape kept = KeepdimsShape(a.shape(), axes);
  const float scale =
      static_cast<float>(kept.NumElements()) / static_cast<float>(a.shape().NumElements());
  Variable out = Variable::MakeOp(std::move(value), "mean", {a},
                                  [a, kept, scale](const Tensor& g) {
                                    a.AccumulateGrad(top::MulScalar(
                                        top::BroadcastTo(g.Reshape(kept), a.shape()), scale));
                                  });
  record::OpAttrs attrs;
  attrs.ints = axes;
  attrs.flag = keepdims;
  Note(record::OpKind::kMean, out, {&a}, attrs);
  return out;
}

Variable Reshape(const Variable& a, const Shape& shape) {
  URCL_PROFILE_OP();
  Tensor value = a.value().Reshape(shape);
  const Shape original = a.shape();
  Variable out = Variable::MakeOp(std::move(value), "reshape", {a},
                                  [a, original](const Tensor& g) {
                                    a.AccumulateGrad(g.Reshape(original));
                                  });
  record::OpAttrs attrs;
  attrs.ints = shape.dims();
  Note(record::OpKind::kReshape, out, {&a}, attrs);
  return out;
}

Variable Transpose(const Variable& a, const std::vector<int64_t>& perm) {
  URCL_PROFILE_OP();
  Tensor value = top::Transpose(a.value(), perm);
  // Inverse permutation for backward.
  std::vector<int64_t> inverse(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    inverse[static_cast<size_t>(a.shape().CanonicalAxis(perm[i]))] = static_cast<int64_t>(i);
  }
  Variable out = Variable::MakeOp(std::move(value), "transpose", {a},
                                  [a, inverse](const Tensor& g) {
                                    a.AccumulateGrad(top::Transpose(g, inverse));
                                  });
  record::OpAttrs attrs;
  attrs.ints = perm;
  Note(record::OpKind::kTranspose, out, {&a}, attrs);
  return out;
}

Variable Slice(const Variable& a, const std::vector<int64_t>& starts,
               const std::vector<int64_t>& sizes) {
  URCL_PROFILE_OP();
  Tensor value = top::Slice(a.value(), starts, sizes);
  const Shape full = a.shape();
  Variable out = Variable::MakeOp(std::move(value), "slice", {a},
                                  [a, full, starts](const Tensor& g) {
                                    a.AccumulateGrad(top::UnSlice(g, full, starts));
                                  });
  record::OpAttrs attrs;
  attrs.ints = starts;
  attrs.ints2 = sizes;
  Note(record::OpKind::kSlice, out, {&a}, attrs);
  return out;
}

Variable Concat(const std::vector<Variable>& parts, int64_t axis) {
  URCL_PROFILE_OP();
  URCL_CHECK(!parts.empty());
  std::vector<Tensor> values;
  values.reserve(parts.size());
  for (const Variable& p : parts) values.push_back(p.value());
  Tensor value = top::Concat(values, axis);
  const int64_t canonical = parts[0].shape().CanonicalAxis(axis);
  Variable out = Variable::MakeOp(
      std::move(value), "concat", parts, [parts, canonical](const Tensor& g) {
        int64_t offset = 0;
        for (const Variable& p : parts) {
          if (p.requires_grad()) {
            std::vector<int64_t> starts(static_cast<size_t>(g.rank()), 0);
            starts[static_cast<size_t>(canonical)] = offset;
            p.AccumulateGrad(top::Slice(g, starts, p.shape().dims()));
          }
          offset += p.shape().dim(canonical);
        }
      });
  if (record::TapeListener* rec = record::ActiveListener()) {
    record::OpAttrs attrs;
    attrs.axis = axis;
    rec->OnOpN(record::OpKind::kConcat, out, parts, attrs);
  }
  return out;
}

Variable Pad(const Variable& a, int64_t axis, int64_t before, int64_t after) {
  URCL_PROFILE_OP();
  Tensor value = top::Pad(a.value(), axis, before, after);
  const int64_t canonical = a.shape().CanonicalAxis(axis);
  Variable out = Variable::MakeOp(std::move(value), "pad", {a},
                                  [a, canonical, before](const Tensor& g) {
                                    std::vector<int64_t> starts(static_cast<size_t>(g.rank()), 0);
                                    starts[static_cast<size_t>(canonical)] = before;
                                    a.AccumulateGrad(top::Slice(g, starts, a.shape().dims()));
                                  });
  record::OpAttrs attrs;
  attrs.axis = axis;
  attrs.before = before;
  attrs.after = after;
  Note(record::OpKind::kPad, out, {&a}, attrs);
  return out;
}

Variable BroadcastTo(const Variable& a, const Shape& target) {
  URCL_PROFILE_OP();
  Tensor value = top::BroadcastTo(a.value(), target);
  Variable out = Variable::MakeOp(std::move(value), "broadcast_to", {a},
                                  [a](const Tensor& g) {
                                    a.AccumulateGrad(top::ReduceTo(g, a.shape()));
                                  });
  record::OpAttrs attrs;
  attrs.ints = target.dims();
  Note(record::OpKind::kBroadcastTo, out, {&a}, attrs);
  return out;
}

Variable Softmax(const Variable& a, int64_t axis) {
  URCL_PROFILE_OP();
  Tensor value = top::Softmax(a.value(), axis);
  const Tensor saved = value;
  const int64_t canonical = a.shape().CanonicalAxis(axis);
  Variable out = Variable::MakeOp(
      std::move(value), "softmax", {a}, [a, saved, canonical](const Tensor& g) {
        // dL/dx = (g - sum(g*y, axis)) * y
        const Tensor gy = top::Mul(g, saved);
        const Tensor total = top::Sum(gy, {canonical}, /*keepdims=*/true);
        a.AccumulateGrad(top::Mul(top::Sub(g, total), saved));
      });
  record::OpAttrs attrs;
  attrs.axis = axis;
  Note(record::OpKind::kSoftmax, out, {&a}, attrs);
  return out;
}

Variable StopGradient(const Variable& a) {
  // A fresh leaf with no parents: gradient flow ends here.
  Variable out(a.value(), /*requires_grad=*/false);
  if (record::TapeListener* rec = record::ActiveListener()) rec->OnAlias(out, a);
  return out;
}

Variable Dropout(const Variable& a, float p, Rng& rng, bool training) {
  URCL_PROFILE_OP();
  if (!training || p <= 0.0f) return a;
  URCL_CHECK_LT(p, 1.0f) << "dropout rate must be < 1";
  Tensor mask(a.shape());
  float* pm = mask.mutable_data();
  const float keep_scale = 1.0f / (1.0f - p);
  for (int64_t i = 0; i < mask.NumElements(); ++i) {
    pm[i] = rng.Bernoulli(p) ? 0.0f : keep_scale;
  }
  Tensor value = top::Mul(a.value(), mask);
  Variable out = Variable::MakeOp(std::move(value), "dropout", {a},
                                  [a, mask](const Tensor& g) {
                                    a.AccumulateGrad(top::Mul(g, mask));
                                  });
  // Per-step RNG draws make dropout unreplayable; the recorder aborts capture.
  Note(record::OpKind::kDropout, out, {&a});
  return out;
}

Variable TemporalConv2d(const Variable& input, const Variable& weight, int64_t dilation) {
  URCL_PROFILE_OP();
  // Shape/dilation validation lives in the shared kernel (ops::TemporalConv2d),
  // which the inference-only serving executor also calls directly.
  Tensor value = top::TemporalConv2d(input.value(), weight.value(), dilation);
  Variable out = Variable::MakeOp(
      std::move(value), "temporal_conv2d", {input, weight},
      [input, weight, dilation](const Tensor& g) {
        std::optional<Tensor> d_in, d_w;
        if (input.requires_grad()) d_in.emplace(input.shape());
        if (weight.requires_grad()) d_w.emplace(weight.shape());
        ops::TemporalConv2dBackward(g, input.value(), weight.value(), dilation,
                                    d_in ? &*d_in : nullptr, d_w ? &*d_w : nullptr);
        if (d_in) input.AccumulateGrad(*d_in);
        if (d_w) weight.AccumulateGrad(*d_w);
      });
  record::OpAttrs attrs;
  attrs.axis = dilation;
  Note(record::OpKind::kTemporalConv2d, out, {&input, &weight}, attrs);
  return out;
}

}  // namespace autograd
}  // namespace urcl
