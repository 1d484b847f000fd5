#include "tensor/serialize.h"

#include <cstring>
#include <sstream>

#include <gtest/gtest.h>

#include "tensor/tensor_ops.h"

namespace urcl {
namespace {

// Serialized bytes of `t`.
std::string Bytes(const Tensor& t) {
  std::stringstream buffer;
  SaveTensor(t, buffer);
  return buffer.str();
}

// Decodes `bytes` with io::ReadTensor and requires kDataLoss whose message
// contains `message`.
void ExpectDataLoss(const std::string& bytes, const std::string& message) {
  io::ByteReader reader(bytes);
  Tensor out;
  const Status status = io::ReadTensor(reader, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_NE(status.message().find(message), std::string::npos) << status.ToString();
}

TEST(SerializeTest, RoundTripStream) {
  Rng rng(11);
  Tensor t = Tensor::RandomNormal(Shape{3, 4, 5}, rng);
  const std::string bytes = Bytes(t);
  io::ByteReader reader(bytes);
  Tensor back;
  ASSERT_TRUE(io::ReadTensor(reader, &back).ok());
  EXPECT_EQ(back.shape(), t.shape());
  EXPECT_TRUE(ops::AllClose(back, t, 0.0f, 0.0f));
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(SerializeTest, RoundTripScalar) {
  const std::string bytes = Bytes(Tensor::Scalar(3.5f));
  io::ByteReader reader(bytes);
  Tensor back;
  ASSERT_TRUE(io::ReadTensor(reader, &back).ok());
  EXPECT_FLOAT_EQ(back.Item(), 3.5f);
}

TEST(SerializeTest, MultipleTensorsInOneStream) {
  const std::string bytes = Bytes(Tensor::Ones(Shape{2})) + Bytes(Tensor::Full(Shape{3}, 2.0f));
  io::ByteReader reader(bytes);
  Tensor a;
  Tensor b;
  ASSERT_TRUE(io::ReadTensor(reader, &a).ok());
  ASSERT_TRUE(io::ReadTensor(reader, &b).ok());
  EXPECT_EQ(a.shape(), Shape({2}));
  EXPECT_EQ(b.shape(), Shape({3}));
  EXPECT_FLOAT_EQ(b.FlatAt(0), 2.0f);
  EXPECT_EQ(reader.remaining(), 0u);
}

// The cases below are named for the aborts the stream decoder used to raise;
// io::ReadTensor reports each as kDataLoss with the same message.

TEST(SerializeTest, BadMagicDies) {
  ExpectDataLoss("this is not a tensor stream at all", "bad tensor magic");
}

TEST(SerializeTest, TruncatedStreamDies) {
  Rng rng(1);
  const std::string bytes = Bytes(Tensor::RandomNormal(Shape{8}, rng));
  ExpectDataLoss(bytes.substr(0, bytes.size() / 2), "truncated");
}

// --- Corrupt-header hardening: every header field is validated against the
// bytes actually present BEFORE any allocation happens, so a flipped dim or
// count field fails loudly instead of triggering a terabyte allocation.

// Serialized bytes of a small valid tensor, for byte surgery.
std::string ValidTensorBytes() { return Bytes(Tensor::Ones(Shape{2, 3})); }

TEST(SerializeTest, ImplausibleRankDies) {
  std::string bytes = ValidTensorBytes();
  const int64_t rank = 17;  // > the 16 allowed
  std::memcpy(bytes.data() + sizeof(uint32_t), &rank, sizeof(int64_t));
  ExpectDataLoss(bytes, "implausible tensor rank");
}

TEST(SerializeTest, RankBeyondStreamDies) {
  // Plausible rank (10) but the stream only holds two dim fields: the header
  // bound check must fire, not a short read inside the dim loop.
  std::string bytes = ValidTensorBytes();
  const int64_t rank = 10;
  std::memcpy(bytes.data() + sizeof(uint32_t), &rank, sizeof(int64_t));
  ExpectDataLoss(bytes, "needs 80 header bytes");
}

TEST(SerializeTest, OverflowingDimsDie) {
  // dims {2^36, 2^36}: each fits in int64 but the product overflows the
  // element-count guard; must fail before allocating.
  std::string bytes = ValidTensorBytes();
  const int64_t huge = int64_t{1} << 36;
  std::memcpy(bytes.data() + sizeof(uint32_t) + sizeof(int64_t), &huge, sizeof(int64_t));
  std::memcpy(bytes.data() + sizeof(uint32_t) + 2 * sizeof(int64_t), &huge, sizeof(int64_t));
  ExpectDataLoss(bytes, "tensor header dims overflow");
}

TEST(SerializeTest, NegativeDimDies) {
  std::string bytes = ValidTensorBytes();
  const int64_t negative = -4;
  std::memcpy(bytes.data() + sizeof(uint32_t) + sizeof(int64_t), &negative, sizeof(int64_t));
  ExpectDataLoss(bytes, "negative tensor dim");
}

TEST(SerializeTest, PayloadShorterThanHeaderClaimsDies) {
  // Inflate a dim so the header claims more payload than the stream holds.
  std::string bytes = ValidTensorBytes();
  const int64_t inflated = 1000;
  std::memcpy(bytes.data() + sizeof(uint32_t) + sizeof(int64_t), &inflated, sizeof(int64_t));
  ExpectDataLoss(bytes, "tensor data truncated: header claims");
}

}  // namespace
}  // namespace urcl
