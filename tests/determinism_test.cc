// Determinism and multi-step prediction tests: same seed must give
// bit-identical training trajectories, and every component must support
// output horizons N_out > 1 (the SSTP problem statement allows N future
// observations, Eq. 1).
#include <gtest/gtest.h>

#include <cstring>

#include "baselines/zoo.h"
#include "core/strategies.h"
#include "core/urcl.h"
#include "data/presets.h"
#include "data/synthetic.h"
#include "runtime/parallel.h"
#include "tensor/tensor_ops.h"

#include "predict_util.h"

namespace urcl {
namespace {

core::UrclConfig TinyConfig(int64_t nodes, int64_t output_steps = 1) {
  core::UrclConfig config;
  config.encoder.num_nodes = nodes;
  config.encoder.in_channels = 2;
  config.encoder.input_steps = 12;
  config.encoder.hidden_channels = 4;
  config.encoder.latent_channels = 8;
  config.encoder.num_layers = 3;
  config.encoder.adaptive_embedding_dim = 3;
  config.decoder_hidden = 16;
  config.proj_hidden = 8;
  config.output_steps = output_steps;
  config.batch_size = 4;
  config.max_batches_per_epoch = 5;
  config.replay_sample_count = 2;
  config.rmir_scan_size = 4;
  config.rmir_candidate_pool = 3;
  return config;
}

struct Pipeline {
  std::unique_ptr<data::SyntheticTraffic> generator;
  data::MinMaxNormalizer normalizer;
  std::unique_ptr<data::StDataset> dataset;
};

Pipeline MakePipeline(int64_t nodes, int64_t output_steps, uint64_t seed) {
  Pipeline p;
  data::TrafficConfig config;
  config.num_nodes = nodes;
  config.num_days = 3;
  config.steps_per_day = 64;
  config.seed = seed;
  p.generator = std::make_unique<data::SyntheticTraffic>(config);
  Tensor series = p.generator->GenerateSeries();
  p.normalizer = data::MinMaxNormalizer::Fit(series);
  p.dataset = std::make_unique<data::StDataset>(
      p.normalizer.Transform(series), data::WindowConfig{12, output_steps, 0});
  return p;
}

TEST(DeterminismTest, SameSeedSameLossHistory) {
  Pipeline p = MakePipeline(6, 1, 3);
  core::UrclTrainer a(TinyConfig(6), p.generator->network());
  core::UrclTrainer b(TinyConfig(6), p.generator->network());
  a.TrainStage(*p.dataset, 2);
  b.TrainStage(*p.dataset, 2);
  ASSERT_EQ(a.loss_history().size(), b.loss_history().size());
  for (size_t i = 0; i < a.loss_history().size(); ++i) {
    EXPECT_FLOAT_EQ(a.loss_history()[i], b.loss_history()[i]) << "step " << i;
  }
  // And identical predictions.
  const auto [x, y] = p.dataset->MakeBatch({0, 1});
  EXPECT_TRUE(ops::AllClose(FullForecast(a, x), FullForecast(b, x), 0.0f, 0.0f));
}

TEST(DeterminismTest, ThreadCountInvariantTraining) {
  // A full training stage must be bitwise reproducible at any thread count:
  // identical loss history and identical predictions at 1 vs 4 threads.
  // Oversubscription keeps the 4-thread run genuinely multi-threaded even on
  // a single-core machine (the hardware cap would serialize it).
  const int saved_threads = runtime::GetNumThreads();
  const bool saved_oversubscribe = runtime::OversubscribeEnabled();
  runtime::SetOversubscribe(true);
  Pipeline p = MakePipeline(6, 1, 3);

  runtime::SetNumThreads(1);
  core::UrclTrainer serial(TinyConfig(6), p.generator->network());
  serial.TrainStage(*p.dataset, 2);

  runtime::SetNumThreads(4);
  core::UrclTrainer threaded(TinyConfig(6), p.generator->network());
  threaded.TrainStage(*p.dataset, 2);

  ASSERT_EQ(serial.loss_history().size(), threaded.loss_history().size());
  for (size_t i = 0; i < serial.loss_history().size(); ++i) {
    const float a = serial.loss_history()[i];
    const float b = threaded.loss_history()[i];
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(float)), 0) << "step " << i;
  }
  const auto [x, y] = p.dataset->MakeBatch({0, 1});
  const Tensor pred_serial = FullForecast(serial, x);
  const Tensor pred_threaded = FullForecast(threaded, x);
  ASSERT_EQ(pred_serial.shape(), pred_threaded.shape());
  EXPECT_EQ(std::memcmp(pred_serial.data(), pred_threaded.data(),
                        static_cast<size_t>(pred_serial.NumElements()) * sizeof(float)),
            0);
  runtime::SetOversubscribe(saved_oversubscribe);
  runtime::SetNumThreads(saved_threads);
}

TEST(DeterminismTest, DifferentSeedDiverges) {
  Pipeline p = MakePipeline(6, 1, 3);
  core::UrclConfig other = TinyConfig(6);
  other.seed = 42;
  core::UrclTrainer a(TinyConfig(6), p.generator->network());
  core::UrclTrainer b(other, p.generator->network());
  a.TrainStage(*p.dataset, 1);
  b.TrainStage(*p.dataset, 1);
  const auto [x, y] = p.dataset->MakeBatch({0, 1});
  EXPECT_FALSE(ops::AllClose(FullForecast(a, x), FullForecast(b, x)));
}

TEST(MultiStepTest, UrclPredictsThreeStepHorizon) {
  Pipeline p = MakePipeline(6, 3, 4);
  core::UrclTrainer trainer(TinyConfig(6, 3), p.generator->network());
  const std::vector<float> losses = trainer.TrainStage(*p.dataset, 2);
  EXPECT_TRUE(std::isfinite(losses.back()));
  const auto [x, y] = p.dataset->MakeBatch({0, 5});
  const Tensor pred = FullForecast(trainer, x);
  EXPECT_EQ(pred.shape(), Shape({2, 3, 6, 1}));
  EXPECT_TRUE(ops::AllFinite(pred));
}

TEST(MultiStepTest, DeepBaselinesHandleMultiStep) {
  Pipeline p = MakePipeline(6, 2, 5);
  baselines::ZooOptions options;
  options.encoder.num_nodes = 6;
  options.encoder.in_channels = 2;
  options.encoder.input_steps = 12;
  options.encoder.hidden_channels = 4;
  options.encoder.latent_channels = 8;
  options.encoder.num_layers = 3;
  options.encoder.adaptive_embedding_dim = 3;
  options.deep.decoder_hidden = 16;
  options.deep.output_steps = 2;
  options.deep.max_batches_per_epoch = 2;
  for (const char* name : {"STGCN", "AGCRN", "ARIMA", "HistoricalAverage"}) {
    auto model = baselines::MakeBaseline(name, options, p.generator->network());
    model->TrainStage(*p.dataset, 1);
    const auto [x, y] = p.dataset->MakeBatch({0, 1});
    const Tensor pred = FullForecast(*model, x);
    EXPECT_EQ(pred.shape(), y.shape()) << name;
    EXPECT_TRUE(ops::AllFinite(pred)) << name;
  }
}

TEST(MultiStepTest, LaterHorizonsHarder) {
  // MAE of the 3rd forecast step should be >= MAE of the 1st (error grows
  // with horizon) for a trained model.
  Pipeline p = MakePipeline(6, 3, 6);
  core::UrclConfig config = TinyConfig(6, 3);
  config.max_batches_per_epoch = 12;
  core::UrclTrainer trainer(config, p.generator->network());
  trainer.TrainStage(*p.dataset, 6);
  data::MetricsAccumulator step1, step3;
  for (int64_t i = 0; i + 16 < p.dataset->NumSamples(); i += 16) {
    const auto [x, y] = p.dataset->MakeBatch({i, i + 8});
    const Tensor pred = FullForecast(trainer, x);
    step1.Add(ops::Slice(pred, {0, 0, 0, 0}, {2, 1, 6, 1}),
              ops::Slice(y, {0, 0, 0, 0}, {2, 1, 6, 1}));
    step3.Add(ops::Slice(pred, {0, 2, 0, 0}, {2, 1, 6, 1}),
              ops::Slice(y, {0, 2, 0, 0}, {2, 1, 6, 1}));
  }
  EXPECT_GE(step3.Result().mae, step1.Result().mae * 0.9);
}

}  // namespace
}  // namespace urcl
