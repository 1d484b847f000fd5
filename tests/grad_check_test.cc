// Finite-difference validation of every differentiable op. These tests are
// the ground truth for the autograd engine: if they pass, training dynamics
// downstream are trustworthy.
#include "autograd/grad_check.h"

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "tensor/tensor_ops.h"

namespace urcl {
namespace autograd {
namespace {

using Fn = std::function<Variable(const std::vector<Variable>&)>;

void ExpectGradOk(const Fn& fn, std::vector<Variable> inputs, float tolerance = 2e-2f) {
  const GradCheckResult result = CheckGradients(fn, inputs, 1e-2f, tolerance);
  EXPECT_TRUE(result.passed) << "max_abs=" << result.max_abs_error
                             << " max_rel=" << result.max_rel_error;
}

std::vector<Variable> RandomInputs(const std::vector<Shape>& shapes, uint64_t seed,
                                   float lo = -1.5f, float hi = 1.5f) {
  Rng rng(seed);
  std::vector<Variable> inputs;
  for (const Shape& s : shapes) {
    inputs.emplace_back(Tensor::RandomUniform(s, rng, lo, hi), /*requires_grad=*/true);
  }
  return inputs;
}

TEST(GradCheckTest, AddBroadcast) {
  ExpectGradOk([](const std::vector<Variable>& in) { return Sum(Add(in[0], in[1])); },
               RandomInputs({Shape{2, 3}, Shape{3}}, 1));
}

TEST(GradCheckTest, SubBroadcast) {
  ExpectGradOk([](const std::vector<Variable>& in) { return Sum(Sub(in[0], in[1])); },
               RandomInputs({Shape{2, 3}, Shape{2, 1}}, 2));
}

TEST(GradCheckTest, MulBroadcast) {
  ExpectGradOk([](const std::vector<Variable>& in) { return Sum(Mul(in[0], in[1])); },
               RandomInputs({Shape{2, 3}, Shape{1, 3}}, 3));
}

TEST(GradCheckTest, DivPositiveDenominator) {
  ExpectGradOk([](const std::vector<Variable>& in) { return Sum(Div(in[0], in[1])); },
               RandomInputs({Shape{2, 2}, Shape{2, 2}}, 4, 0.5f, 2.0f));
}

TEST(GradCheckTest, ExpLogSqrtChain) {
  ExpectGradOk(
      [](const std::vector<Variable>& in) { return Sum(Log(Sqrt(Exp(in[0])))); },
      RandomInputs({Shape{3, 2}}, 5, -1.0f, 1.0f));
}

TEST(GradCheckTest, TanhSigmoid) {
  ExpectGradOk(
      [](const std::vector<Variable>& in) { return Sum(Tanh(Sigmoid(in[0]))); },
      RandomInputs({Shape{4}}, 6));
}

TEST(GradCheckTest, SquareMean) {
  ExpectGradOk([](const std::vector<Variable>& in) { return Mean(Square(in[0])); },
               RandomInputs({Shape{3, 3}}, 7));
}

TEST(GradCheckTest, LeakyRelu) {
  // Offsets keep values away from the kink at 0.
  ExpectGradOk(
      [](const std::vector<Variable>& in) { return Sum(LeakyRelu(in[0], 0.1f)); },
      RandomInputs({Shape{6}}, 8, 0.5f, 1.5f));
  ExpectGradOk(
      [](const std::vector<Variable>& in) { return Sum(LeakyRelu(in[0], 0.1f)); },
      RandomInputs({Shape{6}}, 9, -1.5f, -0.5f));
}

TEST(GradCheckTest, MatMul2d) {
  ExpectGradOk([](const std::vector<Variable>& in) { return Sum(MatMul(in[0], in[1])); },
               RandomInputs({Shape{3, 4}, Shape{4, 2}}, 10));
}

TEST(GradCheckTest, MatMulBatchedBroadcast) {
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        return Sum(Square(MatMul(in[0], in[1])));
      },
      RandomInputs({Shape{2, 3, 4}, Shape{4, 2}}, 11));
}

TEST(GradCheckTest, SumAxisKeepdims) {
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        return Sum(Square(Sum(in[0], {1}, /*keepdims=*/true)));
      },
      RandomInputs({Shape{3, 4}}, 12));
}

TEST(GradCheckTest, MeanAxis) {
  ExpectGradOk(
      [](const std::vector<Variable>& in) { return Sum(Square(Mean(in[0], {0}))); },
      RandomInputs({Shape{3, 4}}, 13));
}

TEST(GradCheckTest, TransposeReshapeSlice) {
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        Variable t = Transpose(Reshape(in[0], Shape{2, 6}), {1, 0});
        return Sum(Square(Slice(t, {1, 0}, {4, 2})));
      },
      RandomInputs({Shape{3, 4}}, 14));
}

TEST(GradCheckTest, ConcatPad) {
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        Variable c = Concat({in[0], in[1]}, 1);
        return Sum(Square(Pad(c, 0, 1, 1)));
      },
      RandomInputs({Shape{2, 2}, Shape{2, 3}}, 15));
}

TEST(GradCheckTest, BroadcastToExplicit) {
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        return Sum(Square(BroadcastTo(in[0], Shape{4, 3})));
      },
      RandomInputs({Shape{1, 3}}, 16));
}

TEST(GradCheckTest, SoftmaxWeightedSum) {
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        Variable s = Softmax(in[0], -1);
        return Sum(Mul(s, s));  // nonlinear functional of the softmax
      },
      RandomInputs({Shape{2, 4}}, 17));
}

TEST(GradCheckTest, TemporalConv) {
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        return Sum(Square(TemporalConv2d(in[0], in[1], /*dilation=*/2)));
      },
      RandomInputs({Shape{1, 2, 2, 6}, Shape{2, 2, 1, 2}}, 18));
}

TEST(GradCheckTest, GatedTcnComposite) {
  // The exact composite used by the model: tanh(conv) * sigmoid(conv).
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        Variable a = TemporalConv2d(in[0], in[1], 1);
        Variable b = TemporalConv2d(in[0], in[2], 1);
        return Sum(Square(Mul(Tanh(a), Sigmoid(b))));
      },
      RandomInputs({Shape{1, 2, 2, 5}, Shape{3, 2, 1, 2}, Shape{3, 2, 1, 2}}, 19));
}

TEST(GradCheckTest, NodeMatMul) {
  // Both inputs of the graph operator: the adjacency (as the learned
  // adaptive support) and the [B, C, N, T] features.
  ExpectGradOk(
      [](const std::vector<Variable>& in) { return Sum(Square(NodeMatMul(in[0], in[1]))); },
      RandomInputs({Shape{3, 3}, Shape{2, 2, 3, 4}}, 21));
}

TEST(GradCheckTest, StopGradientExcludesBranch) {
  // d/dx [ sg(x^2) * x ] = x^2 exactly (not 3x^2).
  Variable x(Tensor::Scalar(1.7f), true);
  std::vector<Variable> inputs = {x};
  Variable y = Mul(StopGradient(Mul(x, x)), x);
  x.ZeroGrad();
  y.Backward();
  EXPECT_NEAR(x.grad().Item(), 1.7f * 1.7f, 1e-5);
}

TEST(GradCheckTest, DeepComposite) {
  // A small MLP-like stack: checks interaction of many ops at once.
  ExpectGradOk(
      [](const std::vector<Variable>& in) {
        Variable h = Tanh(Add(MatMul(in[0], in[1]), in[2]));
        Variable o = Sigmoid(MatMul(h, in[3]));
        return Mean(Square(o));
      },
      RandomInputs({Shape{2, 3}, Shape{3, 4}, Shape{4}, Shape{4, 1}}, 20));
}

}  // namespace
}  // namespace autograd
}  // namespace urcl
