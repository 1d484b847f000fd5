// BufferPool behaviour: reuse, stats accounting, cap-with-trim, the
// URCL_CHECK value parser, steady-state training hitting the free lists
// instead of the allocator, and concurrent acquire/release (run this binary
// under -DURCL_SANITIZE=thread to check the locking).
//
// The pool is process-global and shared with every tensor gtest allocates,
// so each test starts from Trim() + ResetCounters() and asserts on counter
// deltas over a window it controls, never on absolute values.
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/urcl.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace urcl {
namespace {

using pool::BufferPool;
using pool::PoolStats;

class PoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BufferPool& pool = BufferPool::Get();
    saved_capacity_ = pool.capacity_bytes();
    pool.Trim();
    pool.ResetCounters();
  }

  void TearDown() override {
    BufferPool& pool = BufferPool::Get();
    pool.set_capacity_bytes(saved_capacity_);
    pool.Trim();
  }

  uint64_t saved_capacity_ = 0;
};

TEST_F(PoolTest, ReusesReleasedBuffer) {
  BufferPool& pool = BufferPool::Get();
  { Tensor t(Shape{100}); }  // acquire (miss) then release back to the pool
  PoolStats stats = pool.Stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.returns, 1u);
  EXPECT_GT(stats.pooled_bytes, 0u);
  { Tensor t(Shape{100}); }  // same size class: must be a hit
  stats = pool.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST_F(PoolTest, SizeClassesShareBuffers) {
  BufferPool& pool = BufferPool::Get();
  // 100 and 128 floats both land in the 128-float class; 129 does not.
  { Tensor t(Shape{100}); }
  { Tensor t(Shape{128}); }
  EXPECT_EQ(pool.Stats().hits, 1u);
  { Tensor t(Shape{129}); }
  EXPECT_EQ(pool.Stats().hits, 1u);
  EXPECT_EQ(pool.Stats().misses, 2u);
}

TEST_F(PoolTest, LiveAndPooledBytesTrackLifetime) {
  BufferPool& pool = BufferPool::Get();
  const PoolStats before = pool.Stats();
  {
    Tensor t(Shape{1000});  // class 1024 floats = 4096 bytes
    const PoolStats held = pool.Stats();
    EXPECT_EQ(held.live_bytes - before.live_bytes, 4096u);
  }
  const PoolStats after = pool.Stats();
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_EQ(after.pooled_bytes - before.pooled_bytes, 4096u);
}

TEST_F(PoolTest, TrimFreesEverythingCached) {
  BufferPool& pool = BufferPool::Get();
  { Tensor a(Shape{64}), b(Shape{512}); }
  EXPECT_GT(pool.Stats().pooled_bytes, 0u);
  const int64_t freed = pool.Trim();
  EXPECT_GT(freed, 0);
  EXPECT_EQ(pool.Stats().pooled_bytes, 0u);
}

TEST_F(PoolTest, CapacityCapTrimsInsteadOfCaching) {
  BufferPool& pool = BufferPool::Get();
  pool.set_capacity_bytes(4096);
  // 2048 floats = 8192 bytes exceeds the cap: released buffer must be freed.
  { Tensor t(Shape{2048}); }
  const PoolStats stats = pool.Stats();
  EXPECT_EQ(stats.returns, 0u);
  EXPECT_GE(stats.trims, 1u);
  EXPECT_EQ(stats.pooled_bytes, 0u);
}

// URCL_CHECK sets the pool's initial poisoning through this parser.
TEST_F(PoolTest, ParseEnabledMatchesDocumentedValues) {
  EXPECT_FALSE(check::ParseEnabledValue("off"));
  EXPECT_FALSE(check::ParseEnabledValue("OFF"));
  EXPECT_FALSE(check::ParseEnabledValue("0"));
  EXPECT_FALSE(check::ParseEnabledValue("false"));
  EXPECT_TRUE(check::ParseEnabledValue("on"));
  EXPECT_TRUE(check::ParseEnabledValue("1"));
  EXPECT_TRUE(check::ParseEnabledValue(nullptr));
}

TEST_F(PoolTest, RecycledZerosTensorIsZeroed) {
  {
    Tensor dirty = Tensor::Full(Shape{64}, 42.0f);
  }
  Tensor t(Shape{64});  // recycles the dirty buffer; constructor must zero it
  EXPECT_EQ(BufferPool::Get().Stats().hits, 1u);
  for (int64_t i = 0; i < t.NumElements(); ++i) EXPECT_EQ(t.data()[i], 0.0f);
}

TEST_F(PoolTest, SteadyStateOpsMakeZeroAllocatorCalls) {
  BufferPool& pool = BufferPool::Get();
  Rng rng(7);
  const Tensor a = Tensor::RandomNormal(Shape{8, 64}, rng);
  const Tensor b = Tensor::RandomNormal(Shape{8, 64}, rng);
  auto run_once = [&] {
    Tensor c = ops::Add(a, b);
    Tensor d = ops::Mul(c, a);
    Tensor e = ops::MatMul(d, ops::TransposeLast2(b));
    Tensor f = ops::Sum(e, {1});
    return f.NumElements();
  };
  run_once();  // warmup populates the free lists
  pool.ResetCounters();
  for (int i = 0; i < 10; ++i) run_once();
  const PoolStats stats = pool.Stats();
  EXPECT_EQ(stats.misses, 0u) << "fixed-shape op chain should be fully pool-served";
  EXPECT_GT(stats.hits, 0u);
}

TEST_F(PoolTest, SteadyStateTrainingStopsAllocating) {
  // End-to-end: with augmentation off every batch has identical shapes, so
  // after a warmup epoch the training loop should run entirely out of the
  // pool (a small allowance covers containers the model grows lazily, e.g.
  // the replay buffer filling up).
  data::TrafficConfig traffic;
  traffic.num_nodes = 6;
  traffic.num_days = 2;
  traffic.steps_per_day = 60;
  traffic.channels = 2;
  data::SyntheticTraffic generator(traffic);
  Tensor series = generator.GenerateSeries();
  data::MinMaxNormalizer normalizer = data::MinMaxNormalizer::Fit(series);
  data::StDataset dataset(normalizer.Transform(series), data::WindowConfig{12, 1, 0});

  core::UrclConfig config;
  config.encoder.num_nodes = traffic.num_nodes;
  config.encoder.in_channels = 2;
  config.encoder.input_steps = 12;
  config.encoder.hidden_channels = 4;
  config.encoder.latent_channels = 8;
  config.encoder.num_layers = 3;
  config.encoder.adaptive_embedding_dim = 3;
  config.batch_size = 4;
  config.max_batches_per_epoch = 4;
  config.replay_sample_count = 2;
  config.rmir_scan_size = 6;
  config.rmir_candidate_pool = 4;
  config.buffer_capacity = 32;
  config.proj_hidden = 8;
  config.decoder_hidden = 16;
  config.enable_augmentation = false;  // fixed shapes batch to batch

  core::UrclTrainer trainer(config, generator.network());
  BufferPool& pool = BufferPool::Get();
  trainer.TrainStage(dataset, 2);  // warmup
  pool.ResetCounters();
  trainer.TrainStage(dataset, 2);
  const PoolStats stats = pool.Stats();
  EXPECT_GT(stats.hits, 1000u);
  EXPECT_LE(stats.misses, 16u) << "steady-state training should be ~fully pool-served";
}

TEST_F(PoolTest, ConcurrentAcquireReleaseIsSafe) {
  // Hammer the pool from several threads; correctness here is "no data race
  // and conserved accounting", which TSan checks when built with
  // -DURCL_SANITIZE=thread.
  BufferPool& pool = BufferPool::Get();
  const uint64_t live_before = pool.Stats().live_bytes;
  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([tid] {
      for (int i = 0; i < kIters; ++i) {
        Tensor t(Shape{int64_t{1} << (tid % 4 + 4)});
        t.Fill(static_cast<float>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const PoolStats stats = pool.Stats();
  EXPECT_EQ(stats.hits + stats.misses, static_cast<uint64_t>(kThreads) * kIters);
  // Every buffer the workers acquired was released again.
  EXPECT_EQ(stats.live_bytes, live_before);
}

TEST_F(PoolTest, StatsAreResidentInMetricsRegistry) {
  // The pool's counters live in the obs registry (urcl.pool.*); Stats() is a
  // thin wrapper reading the same handles, so the two views always agree —
  // with metrics export disabled too, since the pool is an always-on
  // resident.
  BufferPool& pool = BufferPool::Get();
  auto& registry = obs::MetricsRegistry::Get();
  { Tensor t(Shape{100}); }  // miss + return
  { Tensor t(Shape{100}); }  // hit + return
  const PoolStats stats = pool.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(registry.GetCounter("urcl.pool.hits").Value(), stats.hits);
  EXPECT_EQ(registry.GetCounter("urcl.pool.misses").Value(), stats.misses);
  EXPECT_EQ(registry.GetCounter("urcl.pool.returns").Value(), stats.returns);
  EXPECT_EQ(registry.GetCounter("urcl.pool.trims").Value(), stats.trims);
  EXPECT_EQ(static_cast<uint64_t>(registry.GetGauge("urcl.pool.live_bytes").Value()),
            stats.live_bytes);
  EXPECT_EQ(static_cast<uint64_t>(registry.GetGauge("urcl.pool.pooled_bytes").Value()),
            stats.pooled_bytes);
}

TEST_F(PoolTest, PoolCountersAppearInRegistryExports) {
  { Tensor t(Shape{100}); }
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Get().Snapshot();
  ASSERT_TRUE(snap.counters.count("urcl.pool.misses"));
  EXPECT_EQ(snap.counters.at("urcl.pool.misses"), 1u);
  const std::string prom = obs::MetricsRegistry::Get().ToPrometheus();
  EXPECT_NE(prom.find("urcl_pool_misses"), std::string::npos);
  EXPECT_NE(prom.find("urcl_pool_pooled_bytes"), std::string::npos);
}

}  // namespace
}  // namespace urcl
