#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "replay/replay_buffer.h"
#include "replay/samplers.h"
#include "tensor/tensor_ops.h"

namespace urcl {
namespace replay {
namespace {

ReplayItem MakeItem(float value, int64_t slot = 0) {
  ReplayItem item;
  item.inputs = Tensor::Full(Shape{4, 3, 2}, value);
  item.targets = Tensor::Full(Shape{1, 3, 1}, value);
  item.time_slot = slot;
  return item;
}

TEST(ReplayBufferTest, FifoEviction) {
  ReplayBuffer buffer(3, BufferPolicy::kFifo);
  for (int i = 0; i < 5; ++i) buffer.Add(MakeItem(static_cast<float>(i), i));
  EXPECT_EQ(buffer.size(), 3);
  EXPECT_EQ(buffer.evictions(), 2);
  // Oldest remaining is item 2.
  EXPECT_FLOAT_EQ(buffer.Get(0).inputs.FlatAt(0), 2.0f);
  EXPECT_FLOAT_EQ(buffer.Get(2).inputs.FlatAt(0), 4.0f);
}

TEST(ReplayBufferTest, DefaultCapacityMatchesPaper) {
  ReplayBuffer buffer;
  EXPECT_EQ(buffer.capacity(), 256);
  EXPECT_EQ(buffer.policy(), BufferPolicy::kReservoir);
}

TEST(ReplayBufferTest, ReservoirKeepsHistoricalSamples) {
  // With reservoir sampling, early items survive long streams; with FIFO
  // they cannot. Insert 0..999 into a 32-slot buffer and check the retained
  // set spans the early half of the stream.
  ReplayBuffer buffer(32, BufferPolicy::kReservoir, /*seed=*/1);
  for (int i = 0; i < 1000; ++i) buffer.Add(MakeItem(static_cast<float>(i), i));
  EXPECT_EQ(buffer.size(), 32);
  EXPECT_EQ(buffer.inserted(), 1000);
  int64_t early = 0;
  for (int64_t i = 0; i < buffer.size(); ++i) {
    if (buffer.Get(i).inputs.FlatAt(0) < 500.0f) ++early;
  }
  EXPECT_GT(early, 4);   // roughly half in expectation
  EXPECT_LT(early, 28);
}

TEST(ReplayBufferTest, ReservoirIsUniformish) {
  // Mean retained index should be near the stream midpoint.
  ReplayBuffer buffer(64, BufferPolicy::kReservoir, /*seed=*/2);
  for (int i = 0; i < 2000; ++i) buffer.Add(MakeItem(static_cast<float>(i), i));
  double mean = 0.0;
  for (int64_t i = 0; i < buffer.size(); ++i) mean += buffer.Get(i).inputs.FlatAt(0);
  mean /= buffer.size();
  EXPECT_GT(mean, 600.0);
  EXPECT_LT(mean, 1400.0);
}

TEST(ReplayBufferTest, ShapeConsistencyEnforced) {
  ReplayBuffer buffer(4);
  buffer.Add(MakeItem(1.0f));
  ReplayItem wrong;
  wrong.inputs = Tensor::Zeros(Shape{5, 3, 2});
  wrong.targets = Tensor::Zeros(Shape{1, 3, 1});
  EXPECT_DEATH(buffer.Add(std::move(wrong)), "share one shape");
}

TEST(ReplayBufferTest, MakeBatchStacks) {
  ReplayBuffer buffer(4);
  for (int i = 0; i < 4; ++i) buffer.Add(MakeItem(static_cast<float>(i)));
  const auto [x, y] = buffer.MakeBatch({0, 3});
  EXPECT_EQ(x.shape(), Shape({2, 4, 3, 2}));
  EXPECT_EQ(y.shape(), Shape({2, 1, 3, 1}));
  EXPECT_FLOAT_EQ(x.At({1, 0, 0, 0}), 3.0f);
}

TEST(ReplayBufferTest, ClearResets) {
  ReplayBuffer buffer(2);
  buffer.Add(MakeItem(1.0f));
  buffer.Clear();
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.evictions(), 0);
}

TEST(ReplayBufferTest, OutOfRangeDies) {
  ReplayBuffer buffer(2);
  buffer.Add(MakeItem(1.0f));
  EXPECT_DEATH(buffer.Get(1), "out of range");
}

TEST(RandomSamplerTest, DistinctAndBounded) {
  ReplayBuffer buffer(16);
  for (int i = 0; i < 10; ++i) buffer.Add(MakeItem(static_cast<float>(i)));
  Rng rng(1);
  RandomSampler sampler;
  const auto indices = sampler.Sample(buffer, 6, rng);
  EXPECT_EQ(indices.size(), 6u);
  std::set<int64_t> unique(indices.begin(), indices.end());
  EXPECT_EQ(unique.size(), 6u);
  for (const int64_t i : indices) EXPECT_LT(i, 10);
}

TEST(RandomSamplerTest, RequestLargerThanBufferClamps) {
  ReplayBuffer buffer(16);
  for (int i = 0; i < 3; ++i) buffer.Add(MakeItem(1.0f));
  Rng rng(2);
  RandomSampler sampler;
  EXPECT_EQ(sampler.Sample(buffer, 10, rng).size(), 3u);
}

TEST(PearsonTest, PerfectCorrelation) {
  Tensor a = Tensor::FromVector(Shape{4}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector(Shape{4}, {10, 20, 30, 40});
  EXPECT_NEAR(RmirSampler::PearsonCorrelation(a, b), 1.0f, 1e-5);
}

TEST(PearsonTest, PerfectAntiCorrelation) {
  Tensor a = Tensor::FromVector(Shape{4}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector(Shape{4}, {4, 3, 2, 1});
  EXPECT_NEAR(RmirSampler::PearsonCorrelation(a, b), -1.0f, 1e-5);
}

TEST(PearsonTest, ConstantInputGivesZero) {
  Tensor a = Tensor::Full(Shape{4}, 2.0f);
  Tensor b = Tensor::FromVector(Shape{4}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(RmirSampler::PearsonCorrelation(a, b), 0.0f);
}

class RmirSelectTest : public ::testing::Test {
 protected:
  RmirSelectTest() : buffer_(16) {
    // Items 0..7 with increasing values; current batch resembles item 6.
    for (int i = 0; i < 8; ++i) {
      ReplayItem item;
      item.inputs = Tensor::FromVector(
          Shape{2, 2, 1}, {static_cast<float>(i), static_cast<float>(i + 1),
                           static_cast<float>(2 * i), static_cast<float>(3 * i)});
      item.targets = Tensor::Full(Shape{1, 2, 1}, static_cast<float>(i));
      buffer_.Add(std::move(item));
    }
    current_ = Tensor::FromVector(Shape{1, 2, 2, 1}, {6, 7, 12, 18});  // == item 6 pattern
  }
  ReplayBuffer buffer_;
  Tensor current_;
};

TEST_F(RmirSelectTest, PrefersHighInterference) {
  RmirSampler sampler(/*candidate_pool=*/3);
  // Interference peaks at items 1, 2, 3.
  std::vector<float> interference = {0, 10, 9, 8, 0, 0, 0, 0};
  const auto selected = sampler.Select(buffer_, current_, interference, 3);
  std::set<int64_t> got(selected.begin(), selected.end());
  EXPECT_EQ(got, (std::set<int64_t>{1, 2, 3}));
}

TEST_F(RmirSelectTest, ReRanksBySimilarityWithinPool) {
  RmirSampler sampler(/*candidate_pool=*/8);
  // All equal interference: similarity should decide; every item here is a
  // perfect linear pattern so all have correlation 1 except degenerate item 0.
  std::vector<float> interference(8, 1.0f);
  const auto selected = sampler.Select(buffer_, current_, interference, 2);
  EXPECT_EQ(selected.size(), 2u);
  // Item 0 is constant -> correlation 0 -> never selected.
  EXPECT_EQ(std::count(selected.begin(), selected.end(), 0), 0);
}

TEST_F(RmirSelectTest, EmptySampleCountGivesEmpty) {
  RmirSampler sampler(/*candidate_pool=*/4);
  std::vector<float> interference(8, 1.0f);
  EXPECT_TRUE(sampler.Select(buffer_, current_, interference, 0).empty());
}

TEST_F(RmirSelectTest, ScoreSizeMismatchDies) {
  RmirSampler sampler(/*candidate_pool=*/4);
  std::vector<float> wrong(3, 1.0f);
  EXPECT_DEATH(sampler.Select(buffer_, current_, wrong, 2), "one interference score");
}

TEST(RmirConfigTest, InvalidConfigDies) {
  EXPECT_DEATH(RmirSampler(/*candidate_pool=*/0), "Check failed");
}

}  // namespace
}  // namespace replay
}  // namespace urcl
