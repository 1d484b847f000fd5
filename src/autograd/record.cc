#include "autograd/record.h"

#include <iterator>
#include <optional>

#include "obs/profiler.h"
#include "tensor/tensor_ops.h"

namespace urcl {
namespace autograd {
namespace record {

namespace {

namespace top = ::urcl::ops;

thread_local TapeListener* t_listener = nullptr;

using Shapes = std::vector<Shape>;

// One op, defined once: everything the tape, the compiled plan, the linter
// and the profiler know about it.
struct OpDef {
  OpKind kind;
  const char* name;
  int arity;  // input count, or kVariadic
  // Output shape from the input shapes; false on inputs the kernel rejects.
  bool (*shape)(const Shapes& in, const OpAttrs& attrs, Shape* out);
  bool reads_inputs;  // backward reads value(i)
  bool reads_output;  // backward reads output()
  Tensor (*forward)(const OpOperands& x, const OpAttrs& attrs);
  void (*backward)(const Tensor& g, const OpAttrs& attrs, OpOperands& x);
};

// --- Output-shape rules. Each mirrors its kernel's preconditions but answers
// false where the kernel would abort.

bool AxisInRange(const Shape& shape, int64_t axis) {
  return axis >= -shape.rank() && axis < shape.rank();
}

bool NonNegative(const std::vector<int64_t>& dims) {
  for (const int64_t d : dims) {
    if (d < 0) return false;
  }
  return true;
}

bool SameShape(const Shapes& in, const OpAttrs&, Shape* out) {
  *out = in[0];
  return true;
}

bool BroadcastShape(const Shapes& in, const OpAttrs&, Shape* out) {
  return TryBroadcastShapes(in[0], in[1], out);
}

bool MatMulShape(const Shapes& in, const OpAttrs&, Shape* out) {
  const Shape& a = in[0];
  const Shape& b = in[1];
  if (a.rank() < 2 || b.rank() < 2 || a.dim(-1) != b.dim(-2)) return false;
  const Shape a_batch(std::vector<int64_t>(a.dims().begin(), a.dims().end() - 2));
  const Shape b_batch(std::vector<int64_t>(b.dims().begin(), b.dims().end() - 2));
  Shape batch;
  if (!TryBroadcastShapes(a_batch, b_batch, &batch)) return false;
  std::vector<int64_t> dims = batch.dims();
  dims.push_back(a.dim(-2));
  dims.push_back(b.dim(-1));
  *out = Shape(std::move(dims));
  return true;
}

bool ReductionShape(const Shapes& in, const OpAttrs& a, Shape* out) {
  for (const int64_t axis : a.ints) {
    if (!AxisInRange(in[0], axis)) return false;
  }
  *out = top::ReducedShape(in[0], a.ints, /*keepdims=*/a.flag);
  return true;
}

bool ReshapeShape(const Shapes& in, const OpAttrs& a, Shape* out) {
  const Shape target(a.ints);
  if (!NonNegative(a.ints) || target.NumElements() != in[0].NumElements()) return false;
  *out = target;
  return true;
}

bool TransposeShape(const Shapes& in, const OpAttrs& a, Shape* out) {
  const Shape& shape = in[0];
  if (static_cast<int64_t>(a.ints.size()) != shape.rank()) return false;
  std::vector<int64_t> dims;
  std::vector<bool> seen(a.ints.size(), false);
  for (const int64_t axis : a.ints) {
    if (!AxisInRange(shape, axis)) return false;
    const int64_t canonical = shape.CanonicalAxis(axis);
    if (seen[static_cast<size_t>(canonical)]) return false;
    seen[static_cast<size_t>(canonical)] = true;
    dims.push_back(shape.dim(canonical));
  }
  *out = Shape(std::move(dims));
  return true;
}

bool SliceShape(const Shapes& in, const OpAttrs& a, Shape* out) {
  const Shape& shape = in[0];
  const auto rank = static_cast<size_t>(shape.rank());
  if (a.ints.size() != rank || a.ints2.size() != rank) return false;
  for (size_t i = 0; i < rank; ++i) {
    const int64_t start = a.ints[i];
    const int64_t size = a.ints2[i];
    if (start < 0 || size < 0 || start + size > shape.dim(static_cast<int64_t>(i))) return false;
  }
  *out = Shape(a.ints2);
  return true;
}

bool ConcatShape(const Shapes& in, const OpAttrs& a, Shape* out) {
  const Shape& first = in[0];
  if (!AxisInRange(first, a.axis)) return false;
  const int64_t axis = first.CanonicalAxis(a.axis);
  std::vector<int64_t> dims = first.dims();
  dims[static_cast<size_t>(axis)] = 0;
  for (const Shape& part : in) {
    if (part.rank() != first.rank()) return false;
    for (int64_t i = 0; i < part.rank(); ++i) {
      if (i != axis && part.dim(i) != first.dim(i)) return false;
    }
    dims[static_cast<size_t>(axis)] += part.dim(axis);
  }
  *out = Shape(std::move(dims));
  return true;
}

bool PadShape(const Shapes& in, const OpAttrs& a, Shape* out) {
  if (!AxisInRange(in[0], a.axis) || a.before < 0 || a.after < 0) return false;
  std::vector<int64_t> dims = in[0].dims();
  dims[static_cast<size_t>(in[0].CanonicalAxis(a.axis))] += a.before + a.after;
  *out = Shape(std::move(dims));
  return true;
}

bool BroadcastToShape(const Shapes& in, const OpAttrs& a, Shape* out) {
  const Shape target(a.ints);
  if (!NonNegative(a.ints) || !IsBroadcastableTo(in[0], target)) return false;
  *out = target;
  return true;
}

bool SoftmaxShape(const Shapes& in, const OpAttrs& a, Shape* out) {
  if (!AxisInRange(in[0], a.axis)) return false;
  *out = in[0];
  return true;
}

// Input [B, C_in, N, T], weight [C_out, C_in, 1, K], dilation in attrs.axis.
bool TemporalConv2dShape(const Shapes& in, const OpAttrs& a, Shape* out) {
  const Shape& x = in[0];
  const Shape& w = in[1];
  if (x.rank() != 4 || w.rank() != 4 || a.axis < 1) return false;
  if (w.dim(1) != x.dim(1) || w.dim(2) != 1) return false;
  const int64_t t_out = x.dim(3) - a.axis * (w.dim(3) - 1);
  if (t_out <= 0) return false;
  *out = Shape{x.dim(0), w.dim(0), x.dim(2), t_out};
  return true;
}

// Adjacency [N, N], input [B, C, N, T].
bool GraphMatMulShape(const Shapes& in, const OpAttrs&, Shape* out) {
  const Shape& adjacency = in[0];
  const Shape& x = in[1];
  if (adjacency.rank() != 2 || x.rank() != 4) return false;
  if (adjacency.dim(0) != x.dim(2) || adjacency.dim(1) != x.dim(2)) return false;
  *out = x;
  return true;
}

// Slice starts selecting offset `offset` along `axis` of a rank-`rank` tensor.
std::vector<int64_t> StartsAt(int64_t rank, int64_t axis, int64_t offset) {
  std::vector<int64_t> starts(static_cast<size_t>(rank), 0);
  starts[static_cast<size_t>(axis)] = offset;
  return starts;
}

// The gradient of a broadcasting op's input i: `g` summed back to its shape.
void AccumulateReduced(OpOperands& x, size_t i, const Tensor& g) {
  x.Accumulate(i, top::ReduceTo(g, x.shape(i)));
}

// Listed in OpKind order (checked below); each entry is {kind, name, arity,
// shape rule, reads inputs, reads output, forward, backward}.
constexpr OpDef kOps[] = {
    {OpKind::kAdd, "add", 2, BroadcastShape, false, false,
     [](const OpOperands& x, const OpAttrs&) { return top::Add(x.value(0), x.value(1)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) AccumulateReduced(x, 0, g);
       if (x.needs_grad(1)) AccumulateReduced(x, 1, g);
     }},
    {OpKind::kSub, "sub", 2, BroadcastShape, false, false,
     [](const OpOperands& x, const OpAttrs&) { return top::Sub(x.value(0), x.value(1)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) AccumulateReduced(x, 0, g);
       if (x.needs_grad(1)) AccumulateReduced(x, 1, top::Neg(g));
     }},
    {OpKind::kMul, "mul", 2, BroadcastShape, true, false,
     [](const OpOperands& x, const OpAttrs&) { return top::Mul(x.value(0), x.value(1)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) AccumulateReduced(x, 0, top::Mul(g, x.value(1)));
       if (x.needs_grad(1)) AccumulateReduced(x, 1, top::Mul(g, x.value(0)));
     }},
    {OpKind::kDiv, "div", 2, BroadcastShape, true, false,
     [](const OpOperands& x, const OpAttrs&) { return top::Div(x.value(0), x.value(1)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) AccumulateReduced(x, 0, top::Div(g, x.value(1)));
       if (x.needs_grad(1)) {
         const Tensor b2 = top::Square(x.value(1));
         AccumulateReduced(x, 1, top::Neg(top::Div(top::Mul(g, x.value(0)), b2)));
       }
     }},
    {OpKind::kAddScalar, "add_scalar", 1, SameShape, false, false,
     [](const OpOperands& x, const OpAttrs& a) { return top::AddScalar(x.value(0), a.scalar); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) x.Accumulate(0, g);
     }},
    {OpKind::kMulScalar, "mul_scalar", 1, SameShape, false, false,
     [](const OpOperands& x, const OpAttrs& a) { return top::MulScalar(x.value(0), a.scalar); },
     [](const Tensor& g, const OpAttrs& a, OpOperands& x) {
       if (x.needs_grad(0)) x.Accumulate(0, top::MulScalar(g, a.scalar));
     }},
    {OpKind::kExp, "exp", 1, SameShape, false, true,
     [](const OpOperands& x, const OpAttrs&) { return top::Exp(x.value(0)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) x.Accumulate(0, top::Mul(g, x.output()));
     }},
    {OpKind::kLog, "log", 1, SameShape, true, false,
     [](const OpOperands& x, const OpAttrs&) { return top::Log(x.value(0)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) x.Accumulate(0, top::Div(g, x.value(0)));
     }},
    {OpKind::kSqrt, "sqrt", 1, SameShape, false, true,
     [](const OpOperands& x, const OpAttrs&) { return top::Sqrt(x.value(0)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) x.Accumulate(0, top::Div(g, top::MulScalar(x.output(), 2.0f)));
     }},
    {OpKind::kAbs, "abs", 1, SameShape, true, false,  // subgradient 0 at 0
     [](const OpOperands& x, const OpAttrs&) { return top::Abs(x.value(0)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) x.Accumulate(0, top::Mul(g, top::Sign(x.value(0))));
     }},
    {OpKind::kTanh, "tanh", 1, SameShape, false, true,
     [](const OpOperands& x, const OpAttrs&) { return top::Tanh(x.value(0)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) x.Accumulate(0, top::TanhGrad(g, x.output()));  // 1 - tanh^2
     }},
    {OpKind::kSigmoid, "sigmoid", 1, SameShape, false, true,
     [](const OpOperands& x, const OpAttrs&) { return top::Sigmoid(x.value(0)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) x.Accumulate(0, top::SigmoidGrad(g, x.output()));  // s * (1 - s)
     }},
    {OpKind::kRelu, "relu", 1, SameShape, true, false,
     [](const OpOperands& x, const OpAttrs&) { return top::Relu(x.value(0)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (!x.needs_grad(0)) return;
       const Tensor mask = top::Map(x.value(0), [](float v) { return v > 0.0f ? 1.0f : 0.0f; });
       x.Accumulate(0, top::Mul(g, mask));
     }},
    {OpKind::kSquare, "square", 1, SameShape, true, false,
     [](const OpOperands& x, const OpAttrs&) { return top::Square(x.value(0)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) x.Accumulate(0, top::Mul(g, top::MulScalar(x.value(0), 2.0f)));
     }},
    {OpKind::kMatMul, "matmul", 2, MatMulShape, true, false,
     [](const OpOperands& x, const OpAttrs&) { return top::MatMul(x.value(0), x.value(1)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) {
         AccumulateReduced(x, 0, top::MatMul(g, top::TransposeLast2(x.value(1))));
       }
       if (x.needs_grad(1)) {
         AccumulateReduced(x, 1, top::MatMul(top::TransposeLast2(x.value(0)), g));
       }
     }},
    {OpKind::kSum, "sum", 1, ReductionShape, false, false,
     [](const OpOperands& x, const OpAttrs& a) { return top::Sum(x.value(0), a.ints, a.flag); },
     [](const Tensor& g, const OpAttrs& a, OpOperands& x) {
       if (!x.needs_grad(0)) return;
       const Shape& in = x.shape(0);
       const Shape kept = top::ReducedShape(in, a.ints, /*keepdims=*/true);
       x.Accumulate(0, top::BroadcastTo(g.Reshape(kept), in));
     }},
    {OpKind::kMean, "mean", 1, ReductionShape, false, false,
     [](const OpOperands& x, const OpAttrs& a) { return top::Mean(x.value(0), a.ints, a.flag); },
     [](const Tensor& g, const OpAttrs& a, OpOperands& x) {
       if (!x.needs_grad(0)) return;
       const Shape& in = x.shape(0);
       const Shape kept = top::ReducedShape(in, a.ints, /*keepdims=*/true);
       const float scale =
           static_cast<float>(kept.NumElements()) / static_cast<float>(in.NumElements());
       x.Accumulate(0, top::MulScalar(top::BroadcastTo(g.Reshape(kept), in), scale));
     }},
    {OpKind::kReshape, "reshape", 1, ReshapeShape, false, false,
     [](const OpOperands& x, const OpAttrs& a) { return x.value(0).Reshape(Shape(a.ints)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) x.Accumulate(0, g.Reshape(x.shape(0)));
     }},
    {OpKind::kTranspose, "transpose", 1, TransposeShape, false, false,
     [](const OpOperands& x, const OpAttrs& a) { return top::Transpose(x.value(0), a.ints); },
     [](const Tensor& g, const OpAttrs& a, OpOperands& x) {
       if (!x.needs_grad(0)) return;
       std::vector<int64_t> inverse(a.ints.size());
       for (size_t i = 0; i < a.ints.size(); ++i) {
         inverse[static_cast<size_t>(x.shape(0).CanonicalAxis(a.ints[i]))] =
             static_cast<int64_t>(i);
       }
       x.Accumulate(0, top::Transpose(g, inverse));
     }},
    {OpKind::kSlice, "slice", 1, SliceShape, false, false,
     [](const OpOperands& x, const OpAttrs& a) {
       return top::Slice(x.value(0), a.ints, a.ints2);
     },
     [](const Tensor& g, const OpAttrs& a, OpOperands& x) {
       if (x.needs_grad(0)) x.Accumulate(0, top::UnSlice(g, x.shape(0), a.ints));
     }},
    {OpKind::kConcat, "concat", kVariadic, ConcatShape, false, false,
     [](const OpOperands& x, const OpAttrs& a) {
       std::vector<Tensor> parts;
       parts.reserve(x.size());
       for (size_t i = 0; i < x.size(); ++i) parts.push_back(x.value(i));
       return top::Concat(parts, a.axis);
     },
     [](const Tensor& g, const OpAttrs& a, OpOperands& x) {
       const int64_t axis = x.shape(0).CanonicalAxis(a.axis);
       int64_t offset = 0;
       for (size_t i = 0; i < x.size(); ++i) {
         if (x.needs_grad(i)) {
           x.Accumulate(i, top::Slice(g, StartsAt(g.rank(), axis, offset), x.shape(i).dims()));
         }
         offset += x.shape(i).dim(axis);
       }
     }},
    {OpKind::kPad, "pad", 1, PadShape, false, false,
     [](const OpOperands& x, const OpAttrs& a) {
       return top::Pad(x.value(0), a.axis, a.before, a.after);
     },
     [](const Tensor& g, const OpAttrs& a, OpOperands& x) {
       if (!x.needs_grad(0)) return;
       const int64_t axis = x.shape(0).CanonicalAxis(a.axis);
       x.Accumulate(0, top::Slice(g, StartsAt(g.rank(), axis, a.before), x.shape(0).dims()));
     }},
    {OpKind::kBroadcastTo, "broadcast_to", 1, BroadcastToShape, false, false,
     [](const OpOperands& x, const OpAttrs& a) {
       return top::BroadcastTo(x.value(0), Shape(a.ints));
     },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) AccumulateReduced(x, 0, g);
     }},
    {OpKind::kSoftmax, "softmax", 1, SoftmaxShape, false, true,
     [](const OpOperands& x, const OpAttrs& a) { return top::Softmax(x.value(0), a.axis); },
     [](const Tensor& g, const OpAttrs& a, OpOperands& x) {
       if (!x.needs_grad(0)) return;
       // dL/dx = (g - sum(g*y, axis)) * y
       const Tensor& y = x.output();
       const Tensor total =
           top::Sum(top::Mul(g, y), {x.shape(0).CanonicalAxis(a.axis)}, /*keepdims=*/true);
       x.Accumulate(0, top::Mul(top::Sub(g, total), y));
     }},
    {OpKind::kTemporalConv2d, "temporal_conv2d", 2, TemporalConv2dShape, true, false,
     [](const OpOperands& x, const OpAttrs& a) {
       return top::TemporalConv2d(x.value(0), x.value(1), /*dilation=*/a.axis);
     },
     [](const Tensor& g, const OpAttrs& a, OpOperands& x) {
       std::optional<Tensor> d_in, d_w;
       if (x.needs_grad(0)) d_in.emplace(x.shape(0));
       if (x.needs_grad(1)) d_w.emplace(x.shape(1));
       top::TemporalConv2dBackward(g, x.value(0), x.value(1), /*dilation=*/a.axis,
                                   d_in ? &*d_in : nullptr, d_w ? &*d_w : nullptr);
       if (d_in) x.Accumulate(0, *d_in);
       if (d_w) x.Accumulate(1, *d_w);
     }},
    {OpKind::kGraphMatMul, "graph_matmul", 2, GraphMatMulShape, true, false,
     [](const OpOperands& x, const OpAttrs&) { return top::GraphMatMul(x.value(0), x.value(1)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       std::optional<Tensor> d_adjacency, d_x;
       if (x.needs_grad(0)) d_adjacency.emplace(Tensor::Uninitialized(x.shape(0)));
       if (x.needs_grad(1)) d_x.emplace(Tensor::Uninitialized(x.shape(1)));
       top::GraphMatMulBackward(g, x.value(0), x.value(1), d_adjacency ? &*d_adjacency : nullptr,
                                d_x ? &*d_x : nullptr);
       if (d_adjacency) x.Accumulate(0, *d_adjacency);
       if (d_x) x.Accumulate(1, *d_x);
     }},
};

constexpr bool ListedInKindOrder() {
  for (size_t i = 0; i < std::size(kOps); ++i) {
    if (static_cast<size_t>(kOps[i].kind) != i) return false;
  }
  return std::size(kOps) == kNumOpKinds;
}
static_assert(ListedInKindOrder(), "kOps must list every OpKind, in order");

const OpDef& Def(OpKind kind) { return kOps[static_cast<size_t>(kind)]; }

}  // namespace

const char* OpName(OpKind kind) { return Def(kind).name; }

int OpArity(OpKind kind) { return Def(kind).arity; }

bool OpOutputShape(OpKind kind, const OpAttrs& attrs, const std::vector<Shape>& inputs,
                   Shape* out) {
  const OpDef& def = Def(kind);
  const bool counted = def.arity == kVariadic ? !inputs.empty()
                                              : inputs.size() == static_cast<size_t>(def.arity);
  return counted && def.shape(inputs, attrs, out);
}

bool OpReadsInputs(OpKind kind) { return Def(kind).reads_inputs; }

bool OpReadsOutput(OpKind kind) { return Def(kind).reads_output; }

Tensor OpForward(OpKind kind, const OpAttrs& attrs, const OpOperands& operands) {
  const OpDef& def = Def(kind);
  if (!obs::ProfilerEnabled()) return def.forward(operands, attrs);
  const int64_t start = obs::internal::ProfileTicksNow();
  Tensor out = def.forward(operands, attrs);
  obs::internal::RecordForward(def.name, obs::internal::ElapsedNs(start),
                               static_cast<uint64_t>(out.NumElements()) * sizeof(float));
  return out;
}

void OpBackward(OpKind kind, const OpAttrs& attrs, const Tensor& grad, OpOperands& operands) {
  const OpDef& def = Def(kind);
  if (!obs::ProfilerEnabled()) {
    def.backward(grad, attrs, operands);
    return;
  }
  const int64_t start = obs::internal::ProfileTicksNow();
  def.backward(grad, attrs, operands);
  obs::internal::RecordBackward(def.name, obs::internal::ElapsedNs(start),
                                static_cast<uint64_t>(grad.NumElements()) * sizeof(float));
}

TapeListener* ActiveListener() { return t_listener; }

void SetListener(TapeListener* listener) { t_listener = listener; }

}  // namespace record
}  // namespace autograd
}  // namespace urcl
