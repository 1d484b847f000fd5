// End-to-end integration tests: the full pipeline (synthetic stream ->
// normalize -> split -> continual protocol -> metrics) and the paper's
// headline qualitative claims at miniature scale.
#include <gtest/gtest.h>

#include "baselines/zoo.h"
#include "core/strategies.h"
#include "core/urcl.h"
#include "data/presets.h"
#include "data/stream.h"
#include "data/synthetic.h"
#include "tensor/tensor_ops.h"

#include "predict_util.h"

namespace urcl {
namespace {

struct Pipeline {
  std::unique_ptr<data::SyntheticTraffic> generator;
  data::MinMaxNormalizer normalizer;
  std::unique_ptr<data::StDataset> dataset;
  std::unique_ptr<data::StreamSplitter> stream;
  int64_t target_channel = 0;
};

Pipeline MakePipeline(int64_t nodes, int64_t days, uint64_t seed) {
  Pipeline p;
  const data::DatasetPreset preset = data::MetrLaPreset();
  data::TrafficConfig config = preset.MakeTrafficConfig(nodes, days, seed);
  config.steps_per_day = 48;  // half resolution to keep the test fast
  p.generator = std::make_unique<data::SyntheticTraffic>(config);
  Tensor series = p.generator->GenerateSeries();
  p.normalizer = data::MinMaxNormalizer::Fit(series);
  p.dataset = std::make_unique<data::StDataset>(p.normalizer.Transform(series),
                                                preset.MakeWindowConfig());
  p.stream = std::make_unique<data::StreamSplitter>(*p.dataset, data::StreamConfig{});
  return p;
}

core::UrclConfig TinyUrclConfig(int64_t nodes) {
  core::UrclConfig config;
  config.encoder.num_nodes = nodes;
  config.encoder.in_channels = 2;
  config.encoder.input_steps = 12;
  config.encoder.hidden_channels = 6;
  config.encoder.latent_channels = 12;
  config.encoder.num_layers = 3;
  config.encoder.adaptive_embedding_dim = 4;
  config.decoder_hidden = 24;
  config.proj_hidden = 8;
  config.batch_size = 6;
  config.max_batches_per_epoch = 10;
  config.replay_sample_count = 3;
  config.rmir_scan_size = 8;
  config.rmir_candidate_pool = 5;
  config.buffer_capacity = 64;
  return config;
}

TEST(IntegrationTest, FullContinualProtocolRunsAllStages) {
  Pipeline p = MakePipeline(8, 10, 3);
  core::UrclTrainer urcl(TinyUrclConfig(8), p.generator->network());
  core::ProtocolOptions options;
  options.epochs_per_stage = 2;
  const auto results = core::RunContinualProtocol(urcl, *p.stream, p.normalizer,
                                                  p.target_channel, options);
  ASSERT_EQ(results.size(), 5u);
  for (const auto& r : results) {
    EXPECT_GT(r.metrics.mae, 0.0);
    EXPECT_TRUE(std::isfinite(r.metrics.rmse));
    EXPECT_GE(r.metrics.rmse, r.metrics.mae);
  }
  EXPECT_EQ(results[0].stage_name, "B_set");
  EXPECT_GT(results[0].train_seconds, 0.0);
  EXPECT_GT(results[1].infer_seconds_per_observation, 0.0);
}

TEST(IntegrationTest, OneFitAllOnlyTrainsOnBase) {
  Pipeline p = MakePipeline(8, 10, 4);
  core::UrclConfig config = TinyUrclConfig(8);
  config.enable_replay = false;
  config.enable_ssl = false;
  core::UrclTrainer model(config, p.generator->network());
  core::ProtocolOptions options;
  options.strategy = core::TrainingStrategy::kOneFitAll;
  options.epochs_per_stage = 2;
  const auto results =
      core::RunContinualProtocol(model, *p.stream, p.normalizer, p.target_channel, options);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_GT(results[0].train_seconds, 0.0);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].train_seconds, 0.0) << "stage " << i << " must not train";
  }
}

TEST(IntegrationTest, TrainedUrclBeatsUntrainedModel) {
  Pipeline p = MakePipeline(8, 8, 5);
  const data::StreamStage& base = p.stream->Stage(0);

  core::UrclTrainer trained(TinyUrclConfig(8), p.generator->network());
  trained.TrainStage(base.train, 8);
  const data::EvalMetrics trained_metrics =
      core::EvaluatePredictor(trained, base.test, p.normalizer, p.target_channel);

  core::UrclConfig untouched_config = TinyUrclConfig(8);
  untouched_config.seed = 99;
  core::UrclTrainer untouched(untouched_config, p.generator->network());
  const data::EvalMetrics untouched_metrics =
      core::EvaluatePredictor(untouched, base.test, p.normalizer, p.target_channel);

  EXPECT_LT(trained_metrics.mae, untouched_metrics.mae);
}

TEST(IntegrationTest, UrclModelIsSerializableAcrossInstances) {
  Pipeline p = MakePipeline(8, 8, 6);
  core::UrclTrainer a(TinyUrclConfig(8), p.generator->network());
  a.TrainStage(p.stream->Stage(0).train, 1);
  core::UrclConfig other = TinyUrclConfig(8);
  other.seed = 123;
  core::UrclTrainer b(other, p.generator->network());
  b.model().LoadStateDict(a.model().StateDict());
  const auto [x, y] = p.stream->Stage(0).test.MakeBatch({0, 1});
  EXPECT_TRUE(ops::AllClose(FullForecast(a, x), FullForecast(b, x), 1e-5f));
}

TEST(IntegrationTest, FlowDatasetPipelineWorks) {
  // PEMS08-like (3 channels, flow target).
  const data::DatasetPreset preset = data::Pems08Preset();
  data::TrafficConfig config = preset.MakeTrafficConfig(8, 6, 7);
  config.steps_per_day = 48;
  data::SyntheticTraffic generator(config);
  Tensor series = generator.GenerateSeries();
  const data::MinMaxNormalizer normalizer = data::MinMaxNormalizer::Fit(series);
  data::StDataset dataset(normalizer.Transform(series), preset.MakeWindowConfig());
  EXPECT_EQ(dataset.config().target_channel, 1);

  core::UrclConfig urcl_config = TinyUrclConfig(8);
  urcl_config.encoder.in_channels = 3;
  core::UrclTrainer trainer(urcl_config, generator.network());
  trainer.TrainStage(dataset, 1);
  const auto [x, y] = dataset.MakeBatch({0, 1});
  EXPECT_EQ(FullForecast(trainer, x).shape(), y.shape());
}

TEST(IntegrationTest, ReplayReducesForgettingOfBaseSet) {
  // The paper's core claim, measured as forgetting: train through the whole
  // drifted stream, then test on the base set. The replay-based model must
  // retain base-set knowledge better than plain finetuning.
  const int64_t nodes = 8;
  auto run = [&](bool replay, uint64_t seed) {
    data::TrafficConfig config = data::MetrLaPreset().MakeTrafficConfig(nodes, 10, seed);
    config.steps_per_day = 48;
    config.abrupt_refresh_fraction = 0.9f;
    config.abrupt_phase_jump_steps = 8.0f;
    data::SyntheticTraffic generator(config);
    Tensor series = generator.GenerateSeries();
    const data::MinMaxNormalizer normalizer = data::MinMaxNormalizer::Fit(series);
    data::StDataset dataset(normalizer.Transform(series), data::WindowConfig{12, 1, 0});
    data::StreamSplitter stream(dataset, data::StreamConfig{});

    core::UrclConfig config2 = TinyUrclConfig(nodes);
    config2.enable_replay = replay;
    // Isolate the replay mechanism itself: no SSL branch, and concatenation
    // instead of mixup (mixup-vs-concat is a bench-level question, Fig. 6;
    // at this micro scale blending across strongly drifted regimes is noisy).
    config2.enable_ssl = false;
    config2.enable_mixup = false;
    core::UrclTrainer model(config2, generator.network());
    for (int64_t i = 0; i < stream.NumStages(); ++i) {
      model.TrainStage(stream.Stage(i).train, 3);
    }
    // Forgetting probe: accuracy on the base set after the full stream.
    return core::EvaluatePredictor(model, stream.Stage(0).test, normalizer, 0).mae;
  };

  // Average over a few seeds: single micro-scale runs are noisy.
  double with_replay = 0.0, without_replay = 0.0;
  for (const uint64_t seed : {11u, 31u, 51u}) {
    with_replay += run(true, seed);
    without_replay += run(false, seed);
  }
  EXPECT_LT(with_replay, without_replay)
      << "replay=" << with_replay << " finetune=" << without_replay;
}

}  // namespace
}  // namespace urcl
