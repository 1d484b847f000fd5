#include "tensor/serialize.h"

#include <cstring>
#include <sstream>

#include <gtest/gtest.h>

#include "tensor/tensor_ops.h"

namespace urcl {
namespace {

TEST(SerializeTest, RoundTripStream) {
  Rng rng(11);
  Tensor t = Tensor::RandomNormal(Shape{3, 4, 5}, rng);
  std::stringstream buffer;
  SaveTensor(t, buffer);
  Tensor back = LoadTensor(buffer);
  EXPECT_EQ(back.shape(), t.shape());
  EXPECT_TRUE(ops::AllClose(back, t, 0.0f, 0.0f));
}

TEST(SerializeTest, RoundTripScalar) {
  std::stringstream buffer;
  SaveTensor(Tensor::Scalar(3.5f), buffer);
  EXPECT_FLOAT_EQ(LoadTensor(buffer).Item(), 3.5f);
}

TEST(SerializeTest, MultipleTensorsInOneStream) {
  std::stringstream buffer;
  SaveTensor(Tensor::Ones(Shape{2}), buffer);
  SaveTensor(Tensor::Full(Shape{3}, 2.0f), buffer);
  Tensor a = LoadTensor(buffer);
  Tensor b = LoadTensor(buffer);
  EXPECT_EQ(a.shape(), Shape({2}));
  EXPECT_EQ(b.shape(), Shape({3}));
  EXPECT_FLOAT_EQ(b.FlatAt(0), 2.0f);
}

TEST(SerializeTest, BadMagicDies) {
  std::stringstream buffer("this is not a tensor stream at all");
  EXPECT_DEATH(LoadTensor(buffer), "bad tensor magic");
}

TEST(SerializeTest, TruncatedStreamDies) {
  Rng rng(1);
  std::stringstream buffer;
  SaveTensor(Tensor::RandomNormal(Shape{8}, rng), buffer);
  const std::string bytes = buffer.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_DEATH(LoadTensor(truncated), "truncated");
}

// --- Corrupt-header hardening: every header field is validated against the
// bytes actually present BEFORE any allocation happens, so a flipped dim or
// count field fails loudly instead of triggering a terabyte allocation.

// Serialized bytes of a small valid tensor, for byte surgery.
std::string ValidTensorBytes() {
  std::stringstream buffer;
  SaveTensor(Tensor::Ones(Shape{2, 3}), buffer);
  return buffer.str();
}

TEST(SerializeTest, ImplausibleRankDies) {
  std::string bytes = ValidTensorBytes();
  const int64_t rank = 17;  // > the 16 allowed
  std::memcpy(bytes.data() + sizeof(uint32_t), &rank, sizeof(int64_t));
  std::stringstream corrupt(bytes);
  EXPECT_DEATH(LoadTensor(corrupt), "implausible tensor rank");
}

TEST(SerializeTest, RankBeyondStreamDies) {
  // Plausible rank (10) but the stream only holds two dim fields: the header
  // bound check must fire, not a short read inside the dim loop.
  std::string bytes = ValidTensorBytes();
  const int64_t rank = 10;
  std::memcpy(bytes.data() + sizeof(uint32_t), &rank, sizeof(int64_t));
  std::stringstream corrupt(bytes);
  EXPECT_DEATH(LoadTensor(corrupt), "needs 80 header bytes");
}

TEST(SerializeTest, OverflowingDimsDie) {
  // dims {2^36, 2^36}: each fits in int64 but the product overflows the
  // element-count guard; must die before allocating.
  std::string bytes = ValidTensorBytes();
  const int64_t huge = int64_t{1} << 36;
  std::memcpy(bytes.data() + sizeof(uint32_t) + sizeof(int64_t), &huge, sizeof(int64_t));
  std::memcpy(bytes.data() + sizeof(uint32_t) + 2 * sizeof(int64_t), &huge, sizeof(int64_t));
  std::stringstream corrupt(bytes);
  EXPECT_DEATH(LoadTensor(corrupt), "tensor header dims overflow");
}

TEST(SerializeTest, NegativeDimDies) {
  std::string bytes = ValidTensorBytes();
  const int64_t negative = -4;
  std::memcpy(bytes.data() + sizeof(uint32_t) + sizeof(int64_t), &negative, sizeof(int64_t));
  std::stringstream corrupt(bytes);
  EXPECT_DEATH(LoadTensor(corrupt), "");
}

TEST(SerializeTest, PayloadShorterThanHeaderClaimsDies) {
  // Inflate a dim so the header claims more payload than the stream holds.
  std::string bytes = ValidTensorBytes();
  const int64_t inflated = 1000;
  std::memcpy(bytes.data() + sizeof(uint32_t) + sizeof(int64_t), &inflated, sizeof(int64_t));
  std::stringstream corrupt(bytes);
  EXPECT_DEATH(LoadTensor(corrupt), "tensor data truncated: header claims");
}

}  // namespace
}  // namespace urcl
