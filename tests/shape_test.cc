#include "tensor/shape.h"

#include <gtest/gtest.h>

namespace urcl {
namespace {

TEST(ShapeTest, BasicProperties) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.NumElements(), 24);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.dim(2), 4);
  EXPECT_EQ(s.dim(-1), 4);
  EXPECT_EQ(s.dim(-3), 2);
}

TEST(ShapeTest, ScalarShape) {
  Shape s;
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.NumElements(), 1);
}

TEST(ShapeTest, Strides) {
  Shape s{2, 3, 4};
  const std::vector<int64_t> strides = s.Strides();
  ASSERT_EQ(strides.size(), 3u);
  EXPECT_EQ(strides[0], 12);
  EXPECT_EQ(strides[1], 4);
  EXPECT_EQ(strides[2], 1);
}

TEST(ShapeTest, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
}

TEST(ShapeTest, ToString) { EXPECT_EQ(Shape({2, 3}).ToString(), "[2, 3]"); }

TEST(ShapeTest, BroadcastSameShape) {
  EXPECT_EQ(BroadcastShapes(Shape{2, 3}, Shape{2, 3}), Shape({2, 3}));
}

TEST(ShapeTest, BroadcastScalar) {
  EXPECT_EQ(BroadcastShapes(Shape{2, 3}, Shape{}), Shape({2, 3}));
  EXPECT_EQ(BroadcastShapes(Shape{}, Shape{2, 3}), Shape({2, 3}));
}

TEST(ShapeTest, BroadcastOnes) {
  EXPECT_EQ(BroadcastShapes(Shape{4, 1, 3}, Shape{1, 5, 3}), Shape({4, 5, 3}));
  EXPECT_EQ(BroadcastShapes(Shape{3}, Shape{2, 1}), Shape({2, 3}));
}

TEST(ShapeTest, BroadcastKeepsEmptyAxisAgainstOne) {
  // The non-1 extent wins: an empty batch broadcast against a [1, ...] bias
  // stays empty instead of growing to one row read from an empty buffer.
  EXPECT_EQ(BroadcastShapes(Shape{0, 3}, Shape{1, 3}), Shape({0, 3}));
  EXPECT_EQ(BroadcastShapes(Shape{1, 3}, Shape{0, 3}), Shape({0, 3}));
  Shape out{7};
  EXPECT_FALSE(TryBroadcastShapes(Shape{2, 3}, Shape{2, 4}, &out));
  EXPECT_EQ(out, Shape({7}));
}

TEST(ShapeTest, BroadcastIncompatibleDies) {
  EXPECT_DEATH(BroadcastShapes(Shape{2, 3}, Shape{2, 4}), "cannot broadcast");
}

TEST(ShapeTest, IsBroadcastableTo) {
  EXPECT_TRUE(IsBroadcastableTo(Shape{1, 3}, Shape{5, 3}));
  EXPECT_TRUE(IsBroadcastableTo(Shape{}, Shape{5, 3}));
  EXPECT_TRUE(IsBroadcastableTo(Shape{3}, Shape{5, 3}));
  EXPECT_FALSE(IsBroadcastableTo(Shape{5, 3}, Shape{3}));
  EXPECT_FALSE(IsBroadcastableTo(Shape{2, 3}, Shape{5, 3}));
}

TEST(ShapeTest, CanonicalAxisOutOfRangeDies) {
  Shape s{2, 3};
  EXPECT_DEATH(s.CanonicalAxis(2), "axis out of range");
  EXPECT_DEATH(s.CanonicalAxis(-3), "axis out of range");
}

}  // namespace
}  // namespace urcl
