#include "autograd/ops.h"

#include <algorithm>
#include <functional>
#include <optional>

#include "common/check.h"
#include "obs/profiler.h"
#include "tensor/tensor_ops.h"

namespace urcl {
namespace autograd {

using record::OpKind;

namespace {

// The tape's operand view: the op's parent Variables and, in backward, the
// output value the closure kept.
class TapeOperands final : public record::OpOperands {
 public:
  explicit TapeOperands(const std::vector<Variable>& parents, const Tensor* output = nullptr)
      : parents_(parents), output_(output) {}

  size_t size() const override { return parents_.size(); }
  const Shape& shape(size_t i) const override { return parents_[i].shape(); }
  const Tensor& value(size_t i) const override { return parents_[i].value(); }
  const Tensor& output() const override { return *output_; }
  bool needs_grad(size_t i) const override { return parents_[i].requires_grad(); }
  void Accumulate(size_t i, const Tensor& delta) override { parents_[i].AccumulateGrad(delta); }

 private:
  const std::vector<Variable>& parents_;
  const Tensor* output_;
};

// Capture hook: one branch when no listener is installed (the steady-state
// tape path), a recorder callback when the compiled executor is capturing
// this forward build (autograd/record.h).
void Note(OpKind kind, const Variable& out, const std::vector<Variable>& parents,
          const record::OpAttrs& attrs) {
  if (record::TapeListener* rec = record::ActiveListener()) rec->OnOp(kind, out, parents, attrs);
}

}  // namespace

Variable Apply(OpKind kind, const std::vector<Variable>& parents, const record::OpAttrs& attrs) {
  URCL_PROFILE_OP();
  Tensor value = record::OpForward(kind, attrs, TapeOperands(parents));
  std::function<void(const Tensor&)> backward;
  if (std::any_of(parents.begin(), parents.end(),
                  [](const Variable& p) { return p.requires_grad(); })) {
    std::optional<Tensor> output;
    if (record::OpReadsOutput(kind)) output = value;
    backward = [kind, parents, attrs, output = std::move(output)](const Tensor& g) {
      TapeOperands operands(parents, output ? &*output : nullptr);
      record::OpBackward(kind, attrs, g, operands);
    };
  }
  Variable out =
      Variable::MakeOp(std::move(value), record::OpName(kind), parents, std::move(backward));
  Note(kind, out, parents, attrs);
  return out;
}

Variable Add(const Variable& a, const Variable& b) { return Apply(OpKind::kAdd, {a, b}); }
Variable Sub(const Variable& a, const Variable& b) { return Apply(OpKind::kSub, {a, b}); }
Variable Mul(const Variable& a, const Variable& b) { return Apply(OpKind::kMul, {a, b}); }
Variable Div(const Variable& a, const Variable& b) { return Apply(OpKind::kDiv, {a, b}); }

Variable AddScalar(const Variable& a, float s) {
  return Apply(OpKind::kAddScalar, {a}, {.scalar = s});
}

Variable MulScalar(const Variable& a, float s) {
  return Apply(OpKind::kMulScalar, {a}, {.scalar = s});
}

Variable Neg(const Variable& a) { return MulScalar(a, -1.0f); }

Variable Exp(const Variable& a) { return Apply(OpKind::kExp, {a}); }
Variable Log(const Variable& a) { return Apply(OpKind::kLog, {a}); }
Variable Sqrt(const Variable& a) { return Apply(OpKind::kSqrt, {a}); }
Variable Abs(const Variable& a) { return Apply(OpKind::kAbs, {a}); }
Variable Tanh(const Variable& a) { return Apply(OpKind::kTanh, {a}); }
Variable Sigmoid(const Variable& a) { return Apply(OpKind::kSigmoid, {a}); }
Variable Relu(const Variable& a) { return Apply(OpKind::kRelu, {a}); }

Variable LeakyRelu(const Variable& a, float negative_slope) {
  return Apply(OpKind::kLeakyRelu, {a}, {.scalar = negative_slope});
}

Variable Square(const Variable& a) { return Apply(OpKind::kSquare, {a}); }
Variable MatMul(const Variable& a, const Variable& b) { return Apply(OpKind::kMatMul, {a, b}); }

Variable Sum(const Variable& a, const std::vector<int64_t>& axes, bool keepdims) {
  return Apply(OpKind::kSum, {a}, {.flag = keepdims, .ints = axes});
}

Variable Mean(const Variable& a, const std::vector<int64_t>& axes, bool keepdims) {
  return Apply(OpKind::kMean, {a}, {.flag = keepdims, .ints = axes});
}

Variable Reshape(const Variable& a, const Shape& shape) {
  return Apply(OpKind::kReshape, {a}, {.ints = shape.dims()});
}

Variable Transpose(const Variable& a, const std::vector<int64_t>& perm) {
  return Apply(OpKind::kTranspose, {a}, {.ints = perm});
}

Variable Slice(const Variable& a, const std::vector<int64_t>& starts,
               const std::vector<int64_t>& sizes) {
  return Apply(OpKind::kSlice, {a}, {.ints = starts, .ints2 = sizes});
}

Variable Concat(const std::vector<Variable>& parts, int64_t axis) {
  return Apply(OpKind::kConcat, parts, {.axis = axis});
}

Variable Pad(const Variable& a, int64_t axis, int64_t before, int64_t after) {
  return Apply(OpKind::kPad, {a}, {.axis = axis, .before = before, .after = after});
}

Variable BroadcastTo(const Variable& a, const Shape& target) {
  return Apply(OpKind::kBroadcastTo, {a}, {.ints = target.dims()});
}

Variable Softmax(const Variable& a, int64_t axis) {
  return Apply(OpKind::kSoftmax, {a}, {.axis = axis});
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
  Tensor value = ops::Mul(a.value(), mask);
  const std::vector<Variable> parents{a};
  Variable out = Variable::MakeOp(std::move(value), "dropout", parents,
                                  [a, mask](const Tensor& g) {
                                    a.AccumulateGrad(ops::Mul(g, mask));
                                  });
  // Per-step RNG draws make dropout unreplayable; the recorder aborts capture.
  Note(OpKind::kDropout, out, parents, {});
  return out;
}

Variable TemporalConv2d(const Variable& input, const Variable& weight, int64_t dilation) {
  return Apply(OpKind::kTemporalConv2d, {input, weight}, {.axis = dilation});
}

}  // namespace autograd
}  // namespace urcl
