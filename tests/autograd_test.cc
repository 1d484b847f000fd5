#include "autograd/ops.h"

#include <gtest/gtest.h>

#include "tensor/tensor_ops.h"

namespace urcl {
namespace autograd {
namespace {

namespace top = ::urcl::ops;

Tensor T(const Shape& shape, const std::vector<float>& v) {
  return Tensor::FromVector(shape, v);
}

TEST(VariableTest, LeafBasics) {
  Variable v(Tensor::Scalar(2.0f), /*requires_grad=*/true);
  EXPECT_TRUE(v.IsValid());
  EXPECT_TRUE(v.requires_grad());
  EXPECT_FLOAT_EQ(v.value().Item(), 2.0f);
  EXPECT_FLOAT_EQ(v.grad().Item(), 0.0f);  // no backward yet
}

TEST(VariableTest, EmptyHandleIsInvalid) {
  Variable v;
  EXPECT_FALSE(v.IsValid());
}

TEST(VariableTest, BackwardOnNonScalarDies) {
  Variable v(Tensor::Ones(Shape{2}), true);
  EXPECT_DEATH(v.Backward(), "scalar");
}

TEST(VariableTest, SimpleChainRule) {
  // y = (x * x) + x  =>  dy/dx = 2x + 1 = 7 at x=3
  Variable x(Tensor::Scalar(3.0f), true);
  Variable y = Add(Mul(x, x), x);
  y.Backward();
  EXPECT_FLOAT_EQ(y.value().Item(), 12.0f);
  EXPECT_FLOAT_EQ(x.grad().Item(), 7.0f);
}

TEST(VariableTest, GradAccumulatesAcrossConsumers) {
  // y = x + x + x  =>  dy/dx = 3
  Variable x(Tensor::Scalar(1.0f), true);
  Variable y = Add(Add(x, x), x);
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad().Item(), 3.0f);
}

TEST(VariableTest, ZeroGradResets) {
  Variable x(Tensor::Scalar(2.0f), true);
  Variable y = Mul(x, x);
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad().Item(), 4.0f);
  x.ZeroGrad();
  EXPECT_FLOAT_EQ(x.grad().Item(), 0.0f);
}

TEST(VariableTest, NoGradLeafStaysUntouched) {
  Variable x(Tensor::Scalar(2.0f), true);
  Variable c(Tensor::Scalar(10.0f), false);
  Variable y = Mul(x, c);
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad().Item(), 10.0f);
  EXPECT_FLOAT_EQ(c.grad().Item(), 0.0f);
}

TEST(VariableTest, DiamondGraph) {
  // a = x*x ; b = x+1 ; y = a*b  => dy/dx = 2x*b + a = 2*2*3 + 4 = 16
  Variable x(Tensor::Scalar(2.0f), true);
  Variable a = Mul(x, x);
  Variable b = AddScalar(x, 1.0f);
  Variable y = Mul(a, b);
  y.Backward();
  EXPECT_FLOAT_EQ(y.value().Item(), 12.0f);
  EXPECT_FLOAT_EQ(x.grad().Item(), 16.0f);
}

TEST(OpsTest, BroadcastAddReducesGrad) {
  Variable a(Tensor::Ones(Shape{2, 3}), true);
  Variable b(Tensor::Ones(Shape{3}), true);
  Variable y = Sum(Add(a, b));
  y.Backward();
  EXPECT_EQ(b.grad().shape(), Shape({3}));
  EXPECT_TRUE(top::AllClose(b.grad(), T(Shape{3}, {2, 2, 2})));
  EXPECT_TRUE(top::AllClose(a.grad(), Tensor::Ones(Shape{2, 3})));
}

TEST(OpsTest, MatMulGradShapes) {
  Rng rng(1);
  Variable a(Tensor::RandomNormal(Shape{2, 3}, rng), true);
  Variable b(Tensor::RandomNormal(Shape{3, 4}, rng), true);
  Variable y = Sum(MatMul(a, b));
  y.Backward();
  EXPECT_EQ(a.grad().shape(), Shape({2, 3}));
  EXPECT_EQ(b.grad().shape(), Shape({3, 4}));
}

TEST(OpsTest, MatMulGradValues) {
  // y = sum(a @ b); da = ones @ b^T, db = a^T @ ones
  Variable a(T(Shape{1, 2}, {1, 2}), true);
  Variable b(T(Shape{2, 1}, {3, 4}), true);
  Variable y = Sum(MatMul(a, b));
  y.Backward();
  EXPECT_TRUE(top::AllClose(a.grad(), T(Shape{1, 2}, {3, 4})));
  EXPECT_TRUE(top::AllClose(b.grad(), T(Shape{2, 1}, {1, 2})));
}

TEST(OpsTest, BatchedMatMulBroadcastGrad) {
  Rng rng(2);
  Variable a(Tensor::RandomNormal(Shape{4, 2, 3}, rng), true);
  Variable b(Tensor::RandomNormal(Shape{3, 5}, rng), true);  // shared across batch
  Variable y = Sum(MatMul(a, b));
  y.Backward();
  EXPECT_EQ(a.grad().shape(), Shape({4, 2, 3}));
  EXPECT_EQ(b.grad().shape(), Shape({3, 5}));
}

TEST(OpsTest, MeanGradIsUniform) {
  Variable a(Tensor::Zeros(Shape{4}), true);
  Mean(a).Backward();
  EXPECT_TRUE(top::AllClose(a.grad(), Tensor::Full(Shape{4}, 0.25f)));
}

TEST(OpsTest, SumAxisGrad) {
  Variable a(Tensor::Zeros(Shape{2, 3}), true);
  Variable y = Sum(Sum(a, {1}));  // same as Sum all
  y.Backward();
  EXPECT_TRUE(top::AllClose(a.grad(), Tensor::Ones(Shape{2, 3})));
}

TEST(OpsTest, ReluMasksGradient) {
  Variable a(T(Shape{3}, {-1, 0, 2}), true);
  Sum(Relu(a)).Backward();
  EXPECT_TRUE(top::AllClose(a.grad(), T(Shape{3}, {0, 0, 1})));
}

TEST(OpsTest, AbsSubgradient) {
  Variable a(T(Shape{3}, {-2, 0, 5}), true);
  Sum(Abs(a)).Backward();
  EXPECT_TRUE(top::AllClose(a.grad(), T(Shape{3}, {-1, 0, 1})));
}

TEST(OpsTest, ReshapeTransposeRoundTripGrad) {
  Variable a(Tensor::Arange(6), true);
  Variable y = Sum(Transpose(Reshape(a, Shape{2, 3}), {1, 0}));
  y.Backward();
  EXPECT_TRUE(top::AllClose(a.grad(), Tensor::Ones(Shape{6})));
}

TEST(OpsTest, SliceGradGoesToSlicedRegion) {
  Variable a(Tensor::Zeros(Shape{4}), true);
  Sum(Slice(a, {1}, {2})).Backward();
  EXPECT_TRUE(top::AllClose(a.grad(), T(Shape{4}, {0, 1, 1, 0})));
}

TEST(OpsTest, ConcatSplitsGradient) {
  Variable a(Tensor::Zeros(Shape{2}), true);
  Variable b(Tensor::Zeros(Shape{3}), true);
  Variable y = Concat({a, b}, 0);
  Variable weights(T(Shape{5}, {1, 2, 3, 4, 5}), false);
  Sum(Mul(y, weights)).Backward();
  EXPECT_TRUE(top::AllClose(a.grad(), T(Shape{2}, {1, 2})));
  EXPECT_TRUE(top::AllClose(b.grad(), T(Shape{3}, {3, 4, 5})));
}

TEST(OpsTest, PadGradDropsPadding) {
  Variable a(Tensor::Zeros(Shape{1, 2}), true);
  Sum(Pad(a, 1, 1, 1)).Backward();
  EXPECT_TRUE(top::AllClose(a.grad(), Tensor::Ones(Shape{1, 2})));
}

TEST(OpsTest, StopGradientBlocksFlow) {
  Variable x(Tensor::Scalar(3.0f), true);
  Variable y = Mul(StopGradient(Mul(x, x)), x);  // y = sg(x^2) * x
  y.Backward();
  // Only the direct x factor receives gradient: dy/dx = x^2 = 9.
  EXPECT_FLOAT_EQ(x.grad().Item(), 9.0f);
}

TEST(OpsTest, StopGradientSharesTheInputStorageAndRecordsNoParents) {
  Variable x(Tensor::Ones(Shape{2, 3}), true);
  const Variable squared = Mul(x, x);
  const Variable stopped = StopGradient(squared);
  EXPECT_STREQ(stopped.op_name(), "stop_gradient");
  EXPECT_FALSE(stopped.requires_grad());
  EXPECT_TRUE(stopped.internal_node()->parents.empty());
  EXPECT_EQ(stopped.value().data(), squared.value().data());
}

TEST(OpsTest, SoftmaxGradSumsToZero) {
  Rng rng(4);
  Variable a(Tensor::RandomNormal(Shape{2, 5}, rng), true);
  Variable s = Softmax(a, -1);
  // Weighted sum to create non-uniform upstream grads.
  Variable w(Tensor::Arange(10).Reshape(Shape{2, 5}), false);
  Sum(Mul(s, w)).Backward();
  // Each softmax row's input grads sum to ~0 (softmax is shift-invariant).
  Tensor row_sums = top::Sum(a.grad(), {1});
  EXPECT_TRUE(top::AllClose(row_sums, Tensor::Zeros(Shape{2}), 1e-5f));
}

TEST(OpsTest, TemporalConvShapes) {
  Rng rng(5);
  // [B=2, C_in=3, N=4, T=8], kernel K=2, dilation 2 -> T_out = 8 - 2 = 6.
  Variable in(Tensor::RandomNormal(Shape{2, 3, 4, 8}, rng), true);
  Variable w(Tensor::RandomNormal(Shape{5, 3, 1, 2}, rng), true);
  Variable out = TemporalConv2d(in, w, 2);
  EXPECT_EQ(out.shape(), Shape({2, 5, 4, 6}));
}

TEST(OpsTest, TemporalConvIdentityKernel) {
  // K=1 kernel with single 1.0 weight acts as channel-copy.
  Rng rng(6);
  Variable in(Tensor::RandomNormal(Shape{1, 1, 2, 4}, rng), false);
  Variable w(Tensor::Ones(Shape{1, 1, 1, 1}), false);
  Variable out = TemporalConv2d(in, w, 1);
  EXPECT_TRUE(top::AllClose(out.value(), in.value()));
}

TEST(OpsTest, TemporalConvCausalValues) {
  // Input 1D ramp, kernel [1, 1], dilation 1: out[t] = x[t] + x[t+1].
  Variable in(Tensor::Arange(5).Reshape(Shape{1, 1, 1, 5}), false);
  Variable w(Tensor::Ones(Shape{1, 1, 1, 2}), false);
  Variable out = TemporalConv2d(in, w, 1);
  EXPECT_TRUE(top::AllClose(out.value(), T(Shape{1, 1, 1, 4}, {1, 3, 5, 7})));
}

TEST(OpsTest, TemporalConvTooShortDies) {
  Variable in(Tensor::Zeros(Shape{1, 1, 1, 3}), false);
  Variable w(Tensor::Zeros(Shape{1, 1, 1, 2}), false);
  EXPECT_DEATH(TemporalConv2d(in, w, 4), "receptive field");
}

TEST(OpsTest, OperatorSugar) {
  Variable x(Tensor::Scalar(4.0f), true);
  Variable y(Tensor::Scalar(2.0f), true);
  EXPECT_FLOAT_EQ((x + y).value().Item(), 6.0f);
  EXPECT_FLOAT_EQ((x - y).value().Item(), 2.0f);
  EXPECT_FLOAT_EQ((x * y).value().Item(), 8.0f);
  EXPECT_FLOAT_EQ((x / y).value().Item(), 2.0f);
  EXPECT_FLOAT_EQ((-x).value().Item(), -4.0f);
}

TEST(OpsTest, SecondBackwardAccumulates) {
  // Running backward twice without ZeroGrad doubles leaf grads (documented
  // accumulate semantics, same as PyTorch).
  Variable x(Tensor::Scalar(3.0f), true);
  Variable y = Mul(x, x);
  y.Backward();
  const float g1 = x.grad().Item();
  Variable y2 = Mul(x, x);
  y2.Backward();
  EXPECT_FLOAT_EQ(x.grad().Item(), 2.0f * g1);
}

}  // namespace
}  // namespace autograd
}  // namespace urcl
