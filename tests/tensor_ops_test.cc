#include "tensor/tensor_ops.h"

#include <cmath>

#include <gtest/gtest.h>

namespace urcl {
namespace ops {
namespace {

Tensor T(const Shape& shape, const std::vector<float>& v) {
  return Tensor::FromVector(shape, v);
}

TEST(ElementwiseTest, AddSameShape) {
  Tensor r = Add(T(Shape{3}, {1, 2, 3}), T(Shape{3}, {10, 20, 30}));
  EXPECT_TRUE(AllClose(r, T(Shape{3}, {11, 22, 33})));
}

TEST(ElementwiseTest, AddBroadcastRow) {
  Tensor a = T(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor row = T(Shape{3}, {10, 20, 30});
  Tensor r = Add(a, row);
  EXPECT_TRUE(AllClose(r, T(Shape{2, 3}, {11, 22, 33, 14, 25, 36})));
}

TEST(ElementwiseTest, AddBroadcastColumn) {
  Tensor a = T(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor col = T(Shape{2, 1}, {100, 200});
  Tensor r = Add(a, col);
  EXPECT_TRUE(AllClose(r, T(Shape{2, 3}, {101, 102, 103, 204, 205, 206})));
}

TEST(ElementwiseTest, TwoSidedBroadcast) {
  Tensor a = T(Shape{2, 1}, {1, 2});
  Tensor b = T(Shape{1, 3}, {10, 20, 30});
  Tensor r = Mul(a, b);
  EXPECT_EQ(r.shape(), Shape({2, 3}));
  EXPECT_FLOAT_EQ(r.At({1, 2}), 60.0f);
}

TEST(ElementwiseTest, SubDivMaxMin) {
  Tensor a = T(Shape{2}, {6, -4});
  Tensor b = T(Shape{2}, {2, 8});
  EXPECT_TRUE(AllClose(Sub(a, b), T(Shape{2}, {4, -12})));
  EXPECT_TRUE(AllClose(Div(a, b), T(Shape{2}, {3, -0.5})));
  EXPECT_TRUE(AllClose(Max(Stack({a, b}, 0), {0}), T(Shape{2}, {6, 8})));
  EXPECT_TRUE(AllClose(Min(Stack({a, b}, 0), {0}), T(Shape{2}, {2, -4})));
}

TEST(ElementwiseTest, ScalarOps) {
  Tensor a = T(Shape{2}, {1, 2});
  EXPECT_TRUE(AllClose(AddScalar(a, 1.0f), T(Shape{2}, {2, 3})));
  EXPECT_TRUE(AllClose(MulScalar(a, -2.0f), T(Shape{2}, {-2, -4})));
}

TEST(UnaryTest, Basics) {
  Tensor a = T(Shape{3}, {-1, 0, 4});
  EXPECT_TRUE(AllClose(Neg(a), T(Shape{3}, {1, 0, -4})));
  EXPECT_TRUE(AllClose(Abs(a), T(Shape{3}, {1, 0, 4})));
  EXPECT_TRUE(AllClose(Sign(a), T(Shape{3}, {-1, 0, 1})));
  EXPECT_TRUE(AllClose(Relu(a), T(Shape{3}, {0, 0, 4})));
  EXPECT_TRUE(AllClose(Square(a), T(Shape{3}, {1, 0, 16})));
}

TEST(UnaryTest, Transcendental) {
  Tensor a = T(Shape{2}, {0, 1});
  EXPECT_NEAR(Exp(a).FlatAt(1), std::exp(1.0f), 1e-5);
  EXPECT_NEAR(Log(Exp(a)).FlatAt(1), 1.0f, 1e-5);
  EXPECT_NEAR(Sigmoid(a).FlatAt(0), 0.5f, 1e-6);
  EXPECT_NEAR(Tanh(a).FlatAt(1), std::tanh(1.0f), 1e-6);
  EXPECT_NEAR(Sqrt(T(Shape{1}, {9})).Item(), 3.0f, 1e-6);
}

TEST(ReduceTest, SumAll) {
  Tensor a = T(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(Sum(a).Item(), 21.0f);
  EXPECT_EQ(Sum(a).rank(), 0);
}

TEST(ReduceTest, SumAxis0) {
  Tensor a = T(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Sum(a, {0});
  EXPECT_TRUE(AllClose(r, T(Shape{3}, {5, 7, 9})));
}

TEST(ReduceTest, SumAxis1Keepdims) {
  Tensor a = T(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Sum(a, {1}, /*keepdims=*/true);
  EXPECT_EQ(r.shape(), Shape({2, 1}));
  EXPECT_TRUE(AllClose(r, T(Shape{2, 1}, {6, 15})));
}

TEST(ReduceTest, NegativeAxis) {
  Tensor a = T(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(AllClose(Sum(a, {-1}), T(Shape{2}, {6, 15})));
}

TEST(ReduceTest, MeanMaxMin) {
  Tensor a = T(Shape{2, 2}, {1, 5, 3, -1});
  EXPECT_FLOAT_EQ(Mean(a).Item(), 2.0f);
  EXPECT_FLOAT_EQ(Max(a).Item(), 5.0f);
  EXPECT_FLOAT_EQ(Min(a).Item(), -1.0f);
  EXPECT_TRUE(AllClose(Max(a, {0}), T(Shape{2}, {3, 5})));
  EXPECT_TRUE(AllClose(Min(a, {1}), T(Shape{2}, {1, -1})));
}

TEST(ReduceTest, ReduceToInvertsBroadcast) {
  Tensor col = T(Shape{2, 1}, {1, 2});
  Tensor big = BroadcastTo(col, Shape{2, 4});
  Tensor back = ReduceTo(big, Shape{2, 1});
  EXPECT_TRUE(AllClose(back, T(Shape{2, 1}, {4, 8})));
  // Also reduces away leading axes entirely.
  Tensor row = ReduceTo(Tensor::Ones(Shape{5, 3}), Shape{3});
  EXPECT_TRUE(AllClose(row, T(Shape{3}, {5, 5, 5})));
}

TEST(MatMulTest, Simple2d) {
  Tensor a = T(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = T(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor r = MatMul(a, b);
  EXPECT_TRUE(AllClose(r, T(Shape{2, 2}, {58, 64, 139, 154})));
}

TEST(MatMulTest, IdentityPreserves) {
  Rng rng(3);
  Tensor a = Tensor::RandomNormal(Shape{4, 4}, rng);
  EXPECT_TRUE(AllClose(MatMul(a, Tensor::Eye(4)), a, 1e-5f));
}

TEST(MatMulTest, BatchedAndBroadcast) {
  // a: [2, 2, 3], b: [3, 2] -> broadcast to both batches.
  Tensor a = T(Shape{2, 2, 3}, {1, 2, 3, 4, 5, 6, 1, 0, 0, 0, 1, 0});
  Tensor b = T(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor r = MatMul(a, b);
  EXPECT_EQ(r.shape(), Shape({2, 2, 2}));
  EXPECT_FLOAT_EQ(r.At({0, 0, 0}), 58.0f);
  EXPECT_FLOAT_EQ(r.At({1, 0, 0}), 7.0f);
  EXPECT_FLOAT_EQ(r.At({1, 1, 1}), 10.0f);
}

TEST(MatMulTest, InnerDimMismatchDies) {
  EXPECT_DEATH(MatMul(Tensor::Zeros(Shape{2, 3}), Tensor::Zeros(Shape{4, 2})),
               "inner-dim mismatch");
}

TEST(ShapeOpsTest, TransposeSwapsAxes) {
  Tensor a = T(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Transpose(a, {1, 0});
  EXPECT_EQ(r.shape(), Shape({3, 2}));
  EXPECT_FLOAT_EQ(r.At({2, 1}), 6.0f);
  EXPECT_TRUE(AllClose(TransposeLast2(a), r));
}

TEST(ShapeOpsTest, Transpose3d) {
  Rng rng(1);
  Tensor a = Tensor::RandomNormal(Shape{2, 3, 4}, rng);
  Tensor r = Transpose(a, {2, 0, 1});
  EXPECT_EQ(r.shape(), Shape({4, 2, 3}));
  EXPECT_FLOAT_EQ(r.At({3, 1, 2}), a.At({1, 2, 3}));
}

TEST(ShapeOpsTest, SliceAndUnSlice) {
  Tensor a = T(Shape{3, 4}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  Tensor s = Slice(a, {1, 1}, {2, 2});
  EXPECT_TRUE(AllClose(s, T(Shape{2, 2}, {5, 6, 9, 10})));
  Tensor u = UnSlice(s, Shape{3, 4}, {1, 1});
  EXPECT_FLOAT_EQ(u.At({0, 0}), 0.0f);
  EXPECT_FLOAT_EQ(u.At({1, 1}), 5.0f);
  EXPECT_FLOAT_EQ(u.At({2, 2}), 10.0f);
}

TEST(ShapeOpsTest, SliceOutOfBoundsDies) {
  EXPECT_DEATH(Slice(Tensor::Zeros(Shape{2, 2}), {0, 1}, {2, 2}), "out of bounds");
}

TEST(ShapeOpsTest, ConcatAxis0And1) {
  Tensor a = T(Shape{1, 2}, {1, 2});
  Tensor b = T(Shape{1, 2}, {3, 4});
  EXPECT_TRUE(AllClose(Concat({a, b}, 0), T(Shape{2, 2}, {1, 2, 3, 4})));
  EXPECT_TRUE(AllClose(Concat({a, b}, 1), T(Shape{1, 4}, {1, 2, 3, 4})));
}

TEST(ShapeOpsTest, StackCreatesNewAxis) {
  Tensor a = T(Shape{2}, {1, 2});
  Tensor b = T(Shape{2}, {3, 4});
  Tensor r = Stack({a, b}, 0);
  EXPECT_EQ(r.shape(), Shape({2, 2}));
  EXPECT_FLOAT_EQ(r.At({1, 0}), 3.0f);
}

TEST(ShapeOpsTest, PadAddsZeros) {
  Tensor a = T(Shape{1, 2}, {1, 2});
  Tensor r = Pad(a, 1, 2, 1);
  EXPECT_EQ(r.shape(), Shape({1, 5}));
  EXPECT_TRUE(AllClose(r, T(Shape{1, 5}, {0, 0, 1, 2, 0})));
}

TEST(ShapeOpsTest, FlipReversesAxis) {
  Tensor a = T(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(AllClose(Flip(a, 1), T(Shape{2, 3}, {3, 2, 1, 6, 5, 4})));
  EXPECT_TRUE(AllClose(Flip(a, 0), T(Shape{2, 3}, {4, 5, 6, 1, 2, 3})));
  EXPECT_TRUE(AllClose(Flip(Flip(a, 0), 0), a));
}

TEST(SoftmaxTest, RowsSumToOne) {
  Rng rng(5);
  Tensor a = Tensor::RandomNormal(Shape{4, 7}, rng, 0.0f, 3.0f);
  Tensor s = Softmax(a, -1);
  Tensor sums = Sum(s, {-1});
  EXPECT_TRUE(AllClose(sums, Tensor::Ones(Shape{4}), 1e-5f));
  for (int64_t i = 0; i < s.NumElements(); ++i) EXPECT_GT(s.FlatAt(i), 0.0f);
}

TEST(SoftmaxTest, LargeLogitsAreStable) {
  Tensor a = T(Shape{1, 3}, {1000, 1000, 1000});
  Tensor s = Softmax(a, 1);
  EXPECT_TRUE(AllFinite(s));
  EXPECT_NEAR(s.FlatAt(0), 1.0f / 3.0f, 1e-5);
}

TEST(DiagnosticsTest, AllCloseAndMaxAbsDiff) {
  Tensor a = T(Shape{2}, {1.0f, 2.0f});
  Tensor b = T(Shape{2}, {1.0f, 2.001f});
  EXPECT_FALSE(AllClose(a, b, 1e-5f, 1e-6f));
  EXPECT_TRUE(AllClose(a, b, 1e-2f));
  EXPECT_NEAR(MaxAbsDiff(a, b), 0.001f, 1e-5);
}

TEST(DiagnosticsTest, AllFinite) {
  Tensor a = T(Shape{2}, {1.0f, 2.0f});
  EXPECT_TRUE(AllFinite(a));
  a.FlatSet(0, std::numeric_limits<float>::infinity());
  EXPECT_FALSE(AllFinite(a));
  a.FlatSet(0, std::nanf(""));
  EXPECT_FALSE(AllFinite(a));
}

}  // namespace
}  // namespace ops
}  // namespace urcl
