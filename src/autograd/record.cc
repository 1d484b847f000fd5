#include "autograd/record.h"

#include <iterator>
#include <optional>

#include "common/check.h"
#include "tensor/tensor_ops.h"

namespace urcl {
namespace autograd {
namespace record {

namespace {

namespace top = ::urcl::ops;

thread_local TapeListener* t_listener = nullptr;

// One op, defined once: everything the tape and the compiled plan run.
struct OpDef {
  OpKind kind;
  const char* name;
  bool reads_inputs;  // backward reads value(i)
  bool reads_output;  // backward reads output()
  Tensor (*forward)(const OpOperands& x, const OpAttrs& attrs);
  void (*backward)(const Tensor& g, const OpAttrs& attrs, OpOperands& x);
};

// Shape of a keepdims=true reduction of `in` over `axes` (all when empty),
// for re-broadcasting the gradient.
Shape KeepdimsShape(const Shape& in, const std::vector<int64_t>& axes) {
  std::vector<int64_t> dims = in.dims();
  if (axes.empty()) {
    for (auto& d : dims) d = 1;
  } else {
    for (const int64_t axis : axes) dims[static_cast<size_t>(in.CanonicalAxis(axis))] = 1;
  }
  return Shape(dims);
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

// Listed in OpKind order (checked below); each entry is {kind, tape name,
// reads inputs, reads output, forward, backward}.
constexpr OpDef kOps[] = {
    {OpKind::kAdd, "add", false, false,
     [](const OpOperands& x, const OpAttrs&) { return top::Add(x.value(0), x.value(1)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) AccumulateReduced(x, 0, g);
       if (x.needs_grad(1)) AccumulateReduced(x, 1, g);
     }},
    {OpKind::kSub, "sub", false, false,
     [](const OpOperands& x, const OpAttrs&) { return top::Sub(x.value(0), x.value(1)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) AccumulateReduced(x, 0, g);
       if (x.needs_grad(1)) AccumulateReduced(x, 1, top::Neg(g));
     }},
    {OpKind::kMul, "mul", true, false,
     [](const OpOperands& x, const OpAttrs&) { return top::Mul(x.value(0), x.value(1)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) AccumulateReduced(x, 0, top::Mul(g, x.value(1)));
       if (x.needs_grad(1)) AccumulateReduced(x, 1, top::Mul(g, x.value(0)));
     }},
    {OpKind::kDiv, "div", true, false,
     [](const OpOperands& x, const OpAttrs&) { return top::Div(x.value(0), x.value(1)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) AccumulateReduced(x, 0, top::Div(g, x.value(1)));
       if (x.needs_grad(1)) {
         const Tensor b2 = top::Square(x.value(1));
         AccumulateReduced(x, 1, top::Neg(top::Div(top::Mul(g, x.value(0)), b2)));
       }
     }},
    {OpKind::kAddScalar, "add_scalar", false, false,
     [](const OpOperands& x, const OpAttrs& a) { return top::AddScalar(x.value(0), a.scalar); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) x.Accumulate(0, g);
     }},
    {OpKind::kMulScalar, "mul_scalar", false, false,
     [](const OpOperands& x, const OpAttrs& a) { return top::MulScalar(x.value(0), a.scalar); },
     [](const Tensor& g, const OpAttrs& a, OpOperands& x) {
       if (x.needs_grad(0)) x.Accumulate(0, top::MulScalar(g, a.scalar));
     }},
    {OpKind::kExp, "exp", false, true,
     [](const OpOperands& x, const OpAttrs&) { return top::Exp(x.value(0)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) x.Accumulate(0, top::Mul(g, x.output()));
     }},
    {OpKind::kLog, "log", true, false,
     [](const OpOperands& x, const OpAttrs&) { return top::Log(x.value(0)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) x.Accumulate(0, top::Div(g, x.value(0)));
     }},
    {OpKind::kSqrt, "sqrt", false, true,
     [](const OpOperands& x, const OpAttrs&) { return top::Sqrt(x.value(0)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) x.Accumulate(0, top::Div(g, top::MulScalar(x.output(), 2.0f)));
     }},
    {OpKind::kAbs, "abs", true, false,  // subgradient 0 at 0
     [](const OpOperands& x, const OpAttrs&) { return top::Abs(x.value(0)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) x.Accumulate(0, top::Mul(g, top::Sign(x.value(0))));
     }},
    {OpKind::kTanh, "tanh", false, true,
     [](const OpOperands& x, const OpAttrs&) { return top::Tanh(x.value(0)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (!x.needs_grad(0)) return;
       // d/dx tanh = 1 - tanh^2
       const Tensor one_minus = top::AddScalar(top::Neg(top::Square(x.output())), 1.0f);
       x.Accumulate(0, top::Mul(g, one_minus));
     }},
    {OpKind::kSigmoid, "sigmoid", false, true,
     [](const OpOperands& x, const OpAttrs&) { return top::Sigmoid(x.value(0)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (!x.needs_grad(0)) return;
       // d/dx sigmoid = s * (1 - s)
       const Tensor& s = x.output();
       x.Accumulate(0, top::Mul(g, top::Mul(s, top::AddScalar(top::Neg(s), 1.0f))));
     }},
    {OpKind::kRelu, "relu", true, false,
     [](const OpOperands& x, const OpAttrs&) { return top::Relu(x.value(0)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (!x.needs_grad(0)) return;
       const Tensor mask = top::Map(x.value(0), [](float v) { return v > 0.0f ? 1.0f : 0.0f; });
       x.Accumulate(0, top::Mul(g, mask));
     }},
    {OpKind::kLeakyRelu, "leaky_relu", true, false,
     [](const OpOperands& x, const OpAttrs& a) {
       const float slope = a.scalar;
       return top::Map(x.value(0), [slope](float v) { return v > 0.0f ? v : slope * v; });
     },
     [](const Tensor& g, const OpAttrs& a, OpOperands& x) {
       if (!x.needs_grad(0)) return;
       const float slope = a.scalar;
       const Tensor mask =
           top::Map(x.value(0), [slope](float v) { return v > 0.0f ? 1.0f : slope; });
       x.Accumulate(0, top::Mul(g, mask));
     }},
    {OpKind::kSquare, "square", true, false,
     [](const OpOperands& x, const OpAttrs&) { return top::Square(x.value(0)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) x.Accumulate(0, top::Mul(g, top::MulScalar(x.value(0), 2.0f)));
     }},
    {OpKind::kMatMul, "matmul", true, false,
     [](const OpOperands& x, const OpAttrs&) { return top::MatMul(x.value(0), x.value(1)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) {
         AccumulateReduced(x, 0, top::MatMul(g, top::TransposeLast2(x.value(1))));
       }
       if (x.needs_grad(1)) {
         AccumulateReduced(x, 1, top::MatMul(top::TransposeLast2(x.value(0)), g));
       }
     }},
    {OpKind::kSum, "sum", false, false,
     [](const OpOperands& x, const OpAttrs& a) { return top::Sum(x.value(0), a.ints, a.flag); },
     [](const Tensor& g, const OpAttrs& a, OpOperands& x) {
       if (!x.needs_grad(0)) return;
       const Shape& in = x.shape(0);
       x.Accumulate(0, top::BroadcastTo(g.Reshape(KeepdimsShape(in, a.ints)), in));
     }},
    {OpKind::kMean, "mean", false, false,
     [](const OpOperands& x, const OpAttrs& a) { return top::Mean(x.value(0), a.ints, a.flag); },
     [](const Tensor& g, const OpAttrs& a, OpOperands& x) {
       if (!x.needs_grad(0)) return;
       const Shape& in = x.shape(0);
       const Shape kept = KeepdimsShape(in, a.ints);
       const float scale =
           static_cast<float>(kept.NumElements()) / static_cast<float>(in.NumElements());
       x.Accumulate(0, top::MulScalar(top::BroadcastTo(g.Reshape(kept), in), scale));
     }},
    {OpKind::kReshape, "reshape", false, false,
     [](const OpOperands& x, const OpAttrs& a) { return x.value(0).Reshape(Shape(a.ints)); },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) x.Accumulate(0, g.Reshape(x.shape(0)));
     }},
    {OpKind::kTranspose, "transpose", false, false,
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
    {OpKind::kSlice, "slice", false, false,
     [](const OpOperands& x, const OpAttrs& a) {
       return top::Slice(x.value(0), a.ints, a.ints2);
     },
     [](const Tensor& g, const OpAttrs& a, OpOperands& x) {
       if (x.needs_grad(0)) x.Accumulate(0, top::UnSlice(g, x.shape(0), a.ints));
     }},
    {OpKind::kConcat, "concat", false, false,
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
    {OpKind::kPad, "pad", false, false,
     [](const OpOperands& x, const OpAttrs& a) {
       return top::Pad(x.value(0), a.axis, a.before, a.after);
     },
     [](const Tensor& g, const OpAttrs& a, OpOperands& x) {
       if (!x.needs_grad(0)) return;
       const int64_t axis = x.shape(0).CanonicalAxis(a.axis);
       x.Accumulate(0, top::Slice(g, StartsAt(g.rank(), axis, a.before), x.shape(0).dims()));
     }},
    {OpKind::kBroadcastTo, "broadcast_to", false, false,
     [](const OpOperands& x, const OpAttrs& a) {
       return top::BroadcastTo(x.value(0), Shape(a.ints));
     },
     [](const Tensor& g, const OpAttrs&, OpOperands& x) {
       if (x.needs_grad(0)) AccumulateReduced(x, 0, g);
     }},
    {OpKind::kSoftmax, "softmax", false, true,
     [](const OpOperands& x, const OpAttrs& a) { return top::Softmax(x.value(0), a.axis); },
     [](const Tensor& g, const OpAttrs& a, OpOperands& x) {
       if (!x.needs_grad(0)) return;
       // dL/dx = (g - sum(g*y, axis)) * y
       const Tensor& y = x.output();
       const Tensor total =
           top::Sum(top::Mul(g, y), {x.shape(0).CanonicalAxis(a.axis)}, /*keepdims=*/true);
       x.Accumulate(0, top::Mul(top::Sub(g, total), y));
     }},
    {OpKind::kTemporalConv2d, "temporal_conv2d", true, false,
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
};

constexpr bool ListedInKindOrder() {
  for (size_t i = 0; i < std::size(kOps); ++i) {
    if (static_cast<size_t>(kOps[i].kind) != i) return false;
  }
  return std::size(kOps) == static_cast<size_t>(OpKind::kDropout);
}
static_assert(ListedInKindOrder(), "kOps must list every OpKind but kDropout, in order");

const OpDef& Def(OpKind kind) {
  URCL_CHECK(kind != OpKind::kDropout) << "dropout has no replayable op definition";
  return kOps[static_cast<size_t>(kind)];
}

}  // namespace

const char* OpName(OpKind kind) { return Def(kind).name; }

bool OpReadsInputs(OpKind kind) { return Def(kind).reads_inputs; }

bool OpReadsOutput(OpKind kind) { return Def(kind).reads_output; }

Tensor OpForward(OpKind kind, const OpAttrs& attrs, const OpOperands& operands) {
  return Def(kind).forward(operands, attrs);
}

void OpBackward(OpKind kind, const OpAttrs& attrs, const Tensor& grad, OpOperands& operands) {
  Def(kind).backward(grad, attrs, operands);
}

TapeListener* ActiveListener() { return t_listener; }

void SetListener(TapeListener* listener) { t_listener = listener; }

}  // namespace record
}  // namespace autograd
}  // namespace urcl
