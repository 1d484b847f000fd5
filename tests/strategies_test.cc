// Tests for the continual-learning protocol runner: training strategies,
// seen-so-far evaluation, and timing bookkeeping.
#include "core/strategies.h"

#include <gtest/gtest.h>

#include "core/urcl.h"
#include "data/presets.h"
#include "data/synthetic.h"

namespace urcl {
namespace core {
namespace {

class StrategiesTest : public ::testing::Test {
 protected:
  StrategiesTest() {
    data::TrafficConfig config = data::MetrLaPreset().MakeTrafficConfig(6, 10, 3);
    config.steps_per_day = 48;
    generator_ = std::make_unique<data::SyntheticTraffic>(config);
    Tensor series = generator_->GenerateSeries();
    normalizer_ = data::MinMaxNormalizer::Fit(series);
    dataset_ = std::make_unique<data::StDataset>(normalizer_.Transform(series),
                                                 data::WindowConfig{12, 1, 0});
    stream_ = std::make_unique<data::StreamSplitter>(*dataset_, data::StreamConfig{});
  }

  UrclConfig TinyConfig() const {
    UrclConfig config;
    config.encoder.num_nodes = 6;
    config.encoder.in_channels = 2;
    config.encoder.input_steps = 12;
    config.encoder.hidden_channels = 4;
    config.encoder.latent_channels = 8;
    config.encoder.num_layers = 3;
    config.encoder.adaptive_embedding_dim = 3;
    config.decoder_hidden = 16;
    config.proj_hidden = 8;
    config.batch_size = 4;
    config.max_batches_per_epoch = 4;
    config.replay_sample_count = 2;
    config.rmir_scan_size = 4;
    config.rmir_candidate_pool = 3;
    config.ssl_weight = 0.05f;
    return config;
  }

  std::unique_ptr<data::SyntheticTraffic> generator_;
  data::MinMaxNormalizer normalizer_;
  std::unique_ptr<data::StDataset> dataset_;
  std::unique_ptr<data::StreamSplitter> stream_;
};

TEST_F(StrategiesTest, SeenSoFarPoolsMoreObservationsEachStage) {
  UrclTrainer model(TinyConfig(), generator_->network());
  ProtocolOptions options;
  options.epochs_per_stage = 1;
  const auto results =
      RunContinualProtocol(model, *stream_, normalizer_, 0, options);
  ASSERT_EQ(results.size(), 5u);
  // Pooled evaluation: stage i's count covers exactly the test splits of
  // stages 0..i, so it grows with each stage.
  int64_t expected = 0;
  for (int64_t i = 0; i < stream_->NumStages(); ++i) {
    expected += stream_->Stage(i).test.NumSamples() * 6;  // 6 nodes x 1 step x 1 ch
    EXPECT_EQ(results[static_cast<size_t>(i)].metrics.count, expected);
  }
}

TEST_F(StrategiesTest, OneFitAllSkipsIncrementalTraining) {
  UrclConfig config = TinyConfig();
  config.enable_replay = false;
  config.enable_ssl = false;
  UrclTrainer model(config, generator_->network());
  ProtocolOptions options;
  options.strategy = TrainingStrategy::kOneFitAll;
  options.epochs_per_stage = 1;
  const auto results =
      RunContinualProtocol(model, *stream_, normalizer_, 0, options);
  EXPECT_FALSE(results[0].epoch_losses.empty());
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].epoch_losses.empty());
    EXPECT_EQ(results[i].train_seconds, 0.0);
  }
}

TEST_F(StrategiesTest, TimingFieldsPopulated) {
  UrclTrainer model(TinyConfig(), generator_->network());
  ProtocolOptions options;
  options.epochs_per_stage = 2;
  const auto results =
      RunContinualProtocol(model, *stream_, normalizer_, 0, options);
  for (const auto& r : results) {
    EXPECT_GT(r.train_seconds, 0.0);
    EXPECT_GT(r.train_seconds_per_epoch, 0.0);
    EXPECT_GT(r.infer_seconds_per_observation, 0.0);
    EXPECT_LE(r.train_seconds_per_epoch, r.train_seconds);
  }
}

TEST_F(StrategiesTest, StageNamesPropagate) {
  UrclTrainer model(TinyConfig(), generator_->network());
  ProtocolOptions options;
  options.epochs_per_stage = 1;
  const auto results =
      RunContinualProtocol(model, *stream_, normalizer_, 0, options);
  EXPECT_EQ(results[0].stage_name, "B_set");
  EXPECT_EQ(results[1].stage_name, "I_set1");
  EXPECT_EQ(results[4].stage_name, "I_set4");
}

}  // namespace
}  // namespace core
}  // namespace urcl
