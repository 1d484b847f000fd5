// Tests for the extension features: LayerNorm, validation-based early
// stopping, checkpointing, the EWC trainer, and the CSV writer.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "baselines/zoo.h"
#include "common/csv_writer.h"
#include "core/ewc.h"
#include "core/stencoder.h"
#include "core/urcl.h"
#include "data/synthetic.h"
#include "graph/generator.h"
#include "nn/layer_norm.h"
#include "tensor/tensor_ops.h"

#include "predict_util.h"

namespace urcl {
namespace {

namespace ag = ::urcl::autograd;
namespace top = ::urcl::ops;

TEST(LayerNormTest, NormalizesChannelAxis) {
  Rng rng(1);
  nn::LayerNorm norm(8, rng);
  ag::Variable x(Tensor::RandomNormal(Shape{2, 8, 3, 4}, rng, 5.0f, 3.0f), false);
  const Tensor y = norm.Forward(x).value();
  // With default affine (gamma=1, beta=0): per-position channel mean ~0, var ~1.
  const Tensor mean = top::Mean(y, {1});
  EXPECT_TRUE(top::AllClose(mean, Tensor::Zeros(mean.shape()), 1e-4f));
  const Tensor var = top::Mean(top::Square(y), {1});
  EXPECT_TRUE(top::AllClose(var, Tensor::Ones(var.shape()), 2e-2f));
}

TEST(LayerNormTest, AffineParametersApply) {
  Rng rng(2);
  nn::LayerNorm norm(4, rng);
  ASSERT_EQ(norm.Parameters().size(), 2u);
  // Set gamma = 2, beta = 1 and check the output moments shift accordingly.
  norm.Parameters()[0].SetValue(Tensor::Full(Shape{1, 4, 1, 1}, 2.0f));
  norm.Parameters()[1].SetValue(Tensor::Full(Shape{1, 4, 1, 1}, 1.0f));
  ag::Variable x(Tensor::RandomNormal(Shape{1, 4, 2, 2}, rng), false);
  const Tensor y = norm.Forward(x).value();
  const Tensor mean = top::Mean(y, {1});
  EXPECT_TRUE(top::AllClose(mean, Tensor::Ones(mean.shape()), 1e-4f));
}

TEST(LayerNormTest, GradCheck) {
  Rng rng(3);
  nn::LayerNorm norm(3, rng);
  std::vector<ag::Variable> inputs = {
      ag::Variable(Tensor::RandomUniform(Shape{1, 3, 2, 2}, rng, -1.0f, 1.0f), true)};
  const auto result = ag::CheckGradients(
      [&norm](const std::vector<ag::Variable>& in) {
        return ag::Sum(ag::Square(norm.Forward(in[0])));
      },
      inputs, 1e-2f, 3e-2f);
  EXPECT_TRUE(result.passed) << result.max_rel_error;
}

TEST(LayerNormTest, EncoderWithNormTrains) {
  Rng rng(4);
  core::BackboneConfig config;
  config.num_nodes = 6;
  config.in_channels = 2;
  config.input_steps = 12;
  config.hidden_channels = 4;
  config.latent_channels = 8;
  config.num_layers = 3;
  config.adaptive_embedding_dim = 3;
  config.use_layer_norm = true;
  core::GraphWaveNetEncoder encoder(config, rng);
  Rng graph_rng(5);
  graph::SensorNetwork g = graph::RandomGeometricGraph(6, 0.5f, graph_rng);
  ag::Variable x(Tensor::RandomUniform(Shape{2, 12, 6, 2}, rng), false);
  ag::Variable latent = encoder.Encode(x, g.AdjacencyMatrix());
  EXPECT_TRUE(top::AllFinite(latent.value()));
  ag::Mean(ag::Square(latent)).Backward();  // gradients flow through the norm
}

class TrainerFixture : public ::testing::Test {
 protected:
  TrainerFixture() {
    data::TrafficConfig traffic;
    traffic.num_nodes = 6;
    traffic.num_days = 3;
    traffic.steps_per_day = 72;
    generator_ = std::make_unique<data::SyntheticTraffic>(traffic);
    Tensor series = generator_->GenerateSeries();
    normalizer_ = data::MinMaxNormalizer::Fit(series);
    dataset_ = std::make_unique<data::StDataset>(normalizer_.Transform(series),
                                                 data::WindowConfig{12, 1, 0});
    train_ = std::make_unique<data::StDataset>(dataset_->Slice(0, 150));
    val_ = std::make_unique<data::StDataset>(dataset_->Slice(150, 33));
  }

  core::UrclConfig SmallConfig() const {
    core::UrclConfig config;
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
    config.max_batches_per_epoch = 5;
    config.replay_sample_count = 2;
    config.rmir_scan_size = 4;
    config.rmir_candidate_pool = 3;
    return config;
  }

  std::unique_ptr<data::SyntheticTraffic> generator_;
  data::MinMaxNormalizer normalizer_;
  std::unique_ptr<data::StDataset> dataset_;
  std::unique_ptr<data::StDataset> train_;
  std::unique_ptr<data::StDataset> val_;
};

TEST_F(TrainerFixture, EarlyStoppingStopsAndRestoresBest) {
  core::UrclTrainer trainer(SmallConfig(), generator_->network());
  const std::vector<float> losses =
      trainer.TrainStageWithValidation(*train_, *val_, /*max_epochs=*/30, /*patience=*/2);
  // Must stop well before the 30-epoch cap on this tiny problem.
  EXPECT_LT(losses.size(), 30u);
  EXPECT_GE(losses.size(), 3u);
  // The restored model must be usable.
  const auto [x, y] = val_->MakeBatch({0, 1});
  EXPECT_TRUE(top::AllFinite(FullForecast(trainer, x)));
}

TEST_F(TrainerFixture, ValidationMaeComputes) {
  core::UrclTrainer trainer(SmallConfig(), generator_->network());
  trainer.TrainStage(*train_, 1);
  const double mae = core::ValidationMae(trainer, *val_);
  EXPECT_GT(mae, 0.0);
  EXPECT_LT(mae, 1.0);  // normalized space
}

TEST_F(TrainerFixture, CheckpointRoundTrip) {
  core::UrclTrainer a(SmallConfig(), generator_->network());
  a.TrainStage(*train_, 1);
  const std::string path = ::testing::TempDir() + "/urcl_ckpt_test.bin";
  a.SaveCheckpoint(path);

  core::UrclConfig other = SmallConfig();
  other.seed = 99;
  core::UrclTrainer b(other, generator_->network());
  const auto [x, y] = val_->MakeBatch({0, 1, 2});
  EXPECT_FALSE(top::AllClose(FullForecast(a, x), FullForecast(b, x)));
  b.LoadCheckpoint(path);
  EXPECT_TRUE(top::AllClose(FullForecast(a, x), FullForecast(b, x), 1e-6f));
  std::remove(path.c_str());
}

TEST_F(TrainerFixture, EwcTrainsAndConsolidates) {
  core::EwcConfig config;
  const core::UrclConfig base = SmallConfig();
  config.encoder = base.encoder;
  config.decoder_hidden = base.decoder_hidden;
  config.batch_size = 4;
  config.max_batches_per_epoch = 5;
  config.fisher_batches = 2;
  core::EwcTrainer trainer(config, generator_->network());
  EXPECT_FALSE(trainer.consolidated());
  EXPECT_FLOAT_EQ(trainer.PenaltyValue(), 0.0f);

  const std::vector<float> losses = trainer.TrainStage(*train_, 2);
  EXPECT_EQ(losses.size(), 2u);
  EXPECT_TRUE(trainer.consolidated());
  // Right after consolidation theta == theta*, penalty is zero.
  EXPECT_NEAR(trainer.PenaltyValue(), 0.0f, 1e-6f);

  // Training a second stage moves parameters; the penalty becomes positive
  // during training but is re-anchored at the end. Probe mid-state by
  // training once more and checking predictions still work.
  trainer.TrainStage(*val_, 1);
  const auto [x, y] = val_->MakeBatch({0});
  EXPECT_TRUE(top::AllFinite(FullForecast(trainer, x)));
}

TEST_F(TrainerFixture, EwcPenaltyResistsParameterDrift) {
  core::EwcConfig config;
  const core::UrclConfig base = SmallConfig();
  config.encoder = base.encoder;
  config.decoder_hidden = base.decoder_hidden;
  config.batch_size = 4;
  config.max_batches_per_epoch = 5;
  config.fisher_batches = 2;
  config.ewc_lambda = 1000.0f;
  core::EwcTrainer with_ewc(config, generator_->network());
  with_ewc.TrainStage(*train_, 3);
  const auto [x, y] = train_->MakeBatch({0, 1, 2, 3});
  const Tensor before = FullForecast(with_ewc, x);
  // Train on a very different slice; EWC should keep predictions on the
  // original data closer than a lambda=~0 run would.
  core::EwcConfig weak = config;
  weak.ewc_lambda = 1e-6f;
  core::EwcTrainer without_ewc(weak, generator_->network());
  without_ewc.TrainStage(*train_, 3);
  const Tensor before_weak = FullForecast(without_ewc, x);

  with_ewc.TrainStage(*val_, 3);
  without_ewc.TrainStage(*val_, 3);
  const float drift_ewc = top::MaxAbsDiff(FullForecast(with_ewc, x), before);
  const float drift_weak = top::MaxAbsDiff(FullForecast(without_ewc, x), before_weak);
  EXPECT_LE(drift_ewc, drift_weak * 1.5f)
      << "EWC drift " << drift_ewc << " vs unregularized " << drift_weak;
}

TEST(CsvWriterTest, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/urcl_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.WriteRow({"1", "hello"});
    csv.WriteRow({"2", "with,comma"});
    csv.WriteRow({"3", "with\"quote"});
  }
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  EXPECT_NE(content.find("a,b\n"), std::string::npos);
  EXPECT_NE(content.find("1,hello\n"), std::string::npos);
  EXPECT_NE(content.find("2,\"with,comma\"\n"), std::string::npos);
  EXPECT_NE(content.find("3,\"with\"\"quote\"\n"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvWriterTest, RowWidthMismatchDies) {
  const std::string path = ::testing::TempDir() + "/urcl_csv_test2.csv";
  CsvWriter csv(path, {"a", "b"});
  EXPECT_DEATH(csv.WriteRow({"only-one"}), "row width");
  std::remove(path.c_str());
}

TEST(CsvWriterTest, UnwritablePathDies) {
  EXPECT_DEATH(CsvWriter("/nonexistent/dir/file.csv", {"a"}), "cannot open");
}

}  // namespace
}  // namespace urcl
