#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "core/backbone.h"
#include "core/stdecoder.h"
#include "core/stencoder.h"
#include "core/stmixup.h"
#include "core/stsimsiam.h"
#include "core/urcl.h"
#include "data/synthetic.h"
#include "graph/generator.h"
#include "tensor/tensor_ops.h"

#include "predict_util.h"

namespace urcl {
namespace core {
namespace {

namespace ag = ::urcl::autograd;
namespace top = ::urcl::ops;

BackboneConfig SmallConfig(int64_t nodes = 6) {
  BackboneConfig config;
  config.num_nodes = nodes;
  config.in_channels = 2;
  config.input_steps = 12;
  config.hidden_channels = 4;
  config.latent_channels = 8;
  config.num_layers = 3;
  config.adaptive_embedding_dim = 3;
  return config;
}

TEST(StMixupTest, InterpolatesWithLambda) {
  Rng rng(1);
  Tensor cx = Tensor::Full(Shape{2, 3, 2, 1}, 1.0f);
  Tensor cy = Tensor::Full(Shape{2, 1, 2, 1}, 1.0f);
  Tensor rx = Tensor::Full(Shape{2, 3, 2, 1}, 0.0f);
  Tensor ry = Tensor::Full(Shape{2, 1, 2, 1}, 0.0f);
  const MixupResult result = StMixup(cx, cy, rx, ry, 0.5f, rng);
  EXPECT_GE(result.lambda, 0.0f);
  EXPECT_LE(result.lambda, 1.0f);
  // Per pair: each batch row holds a constant value lambda_b in [0, 1]
  // (current=1, replay=0), and targets use the same lambda_b.
  for (int64_t b = 0; b < 2; ++b) {
    const float lambda_b = result.inputs.At({b, 0, 0, 0});
    EXPECT_GE(lambda_b, 0.0f);
    EXPECT_LE(lambda_b, 1.0f);
    for (int64_t m = 0; m < 3; ++m) {
      for (int64_t n = 0; n < 2; ++n) {
        EXPECT_NEAR(result.inputs.At({b, m, n, 0}), lambda_b, 1e-6);
      }
    }
    EXPECT_NEAR(result.targets.At({b, 0, 0, 0}), lambda_b, 1e-6);
  }
}

TEST(StMixupTest, CyclesSmallerReplayBatch) {
  Rng rng(2);
  Tensor cx = Tensor::Zeros(Shape{4, 2, 2, 1});
  Tensor cy = Tensor::Zeros(Shape{4, 1, 2, 1});
  // Replay batch of 2 with distinct rows.
  Tensor rx(Shape{2, 2, 2, 1});
  rx.Fill(1.0f);
  for (int64_t i = 0; i < 4; ++i) rx.FlatSet(4 + i, 2.0f);  // row 1 = 2.0
  Tensor ry = Tensor::Ones(Shape{2, 1, 2, 1});
  const MixupResult result = StMixup(cx, cy, rx, ry, 0.5f, rng);
  // Current inputs/targets are zero, replay targets are one, so the mixed
  // target of row b reveals (1 - lambda_b); the mixed input must then be
  // (1 - lambda_b) * replay_value with replay rows cycled (b % 2).
  for (int64_t b = 0; b < 4; ++b) {
    const float one_minus_lambda = result.targets.At({b, 0, 0, 0});
    const float replay_value = (b % 2 == 0) ? 1.0f : 2.0f;
    EXPECT_NEAR(result.inputs.At({b, 0, 0, 0}), one_minus_lambda * replay_value, 1e-5);
  }
}

TEST(StMixupTest, EmptyReplayDies) {
  Rng rng(3);
  Tensor cx = Tensor::Zeros(Shape{2, 2, 2, 1});
  Tensor cy = Tensor::Zeros(Shape{2, 1, 2, 1});
  Tensor rx(Shape{0, 2, 2, 1});
  Tensor ry(Shape{0, 1, 2, 1});
  EXPECT_DEATH(StMixup(cx, cy, rx, ry, 0.5f, rng), "non-empty replay");
}

TEST(StMixupTest, ConcatBatchesAblation) {
  Tensor cx = Tensor::Zeros(Shape{2, 2, 2, 1});
  Tensor cy = Tensor::Zeros(Shape{2, 1, 2, 1});
  Tensor rx = Tensor::Ones(Shape{3, 2, 2, 1});
  Tensor ry = Tensor::Ones(Shape{3, 1, 2, 1});
  const MixupResult result = ConcatBatches(cx, cy, rx, ry);
  EXPECT_EQ(result.inputs.dim(0), 5);
  EXPECT_EQ(result.targets.dim(0), 5);
  EXPECT_FLOAT_EQ(result.lambda, 1.0f);
}

class EncoderTest : public ::testing::Test {
 protected:
  EncoderTest() : graph_(graph::GridGraph(2, 3)), rng_(5) {
    adjacency_ = graph_.AdjacencyMatrix();
    Rng data_rng(9);
    x_ = Tensor::RandomUniform(Shape{2, 12, 6, 2}, data_rng);
  }
  graph::SensorNetwork graph_;
  Tensor adjacency_;
  Tensor x_;
  Rng rng_;
};

TEST_F(EncoderTest, GraphWaveNetShapes) {
  GraphWaveNetEncoder encoder(SmallConfig(), rng_);
  Variable latent = encoder.Encode(Variable(x_, false), adjacency_);
  EXPECT_EQ(latent.shape().dim(0), 2);
  EXPECT_EQ(latent.shape().dim(1), 8);
  EXPECT_EQ(latent.shape().dim(2), 6);
  EXPECT_EQ(latent.shape().dim(3), encoder.latent_time());
  EXPECT_GT(encoder.latent_time(), 0);
  // Receptive field consumed: sum of dilations.
  int64_t consumed = 0;
  for (const int64_t d : encoder.dilations()) consumed += d;
  EXPECT_EQ(encoder.latent_time(), 12 - consumed);
}

TEST_F(EncoderTest, GraphWaveNetFiveLayersMatchPaperGeometry) {
  BackboneConfig config = SmallConfig();
  config.num_layers = 5;
  GraphWaveNetEncoder encoder(config, rng_);
  EXPECT_EQ(encoder.dilations().size(), 5u);
  Variable latent = encoder.Encode(Variable(x_, false), adjacency_);
  EXPECT_EQ(latent.shape().dim(3), encoder.latent_time());
}

TEST_F(EncoderTest, GradientsReachAllParameters) {
  GraphWaveNetEncoder encoder(SmallConfig(), rng_);
  Variable latent = encoder.Encode(Variable(x_, false), adjacency_);
  ag::Mean(ag::Square(latent)).Backward();
  int64_t nonzero_grads = 0;
  for (const Variable& p : encoder.Parameters()) {
    if (top::Max(top::Abs(p.grad())).Item() > 0.0f) ++nonzero_grads;
  }
  // Nearly all parameters get gradient (biases of dead relu units may not).
  EXPECT_GT(nonzero_grads, static_cast<int64_t>(encoder.Parameters().size() * 3 / 4));
}

TEST_F(EncoderTest, DcrnnShapes) {
  auto encoder = MakeBackbone(BackboneType::kDcrnn, SmallConfig(), rng_);
  Variable latent = encoder->Encode(Variable(x_, false), adjacency_);
  EXPECT_EQ(latent.shape(), Shape({2, 8, 6, 1}));
  EXPECT_EQ(encoder->latent_time(), 1);
  EXPECT_EQ(encoder->name(), "DCRNN");
}

TEST_F(EncoderTest, GeomanShapes) {
  auto encoder = MakeBackbone(BackboneType::kGeoman, SmallConfig(), rng_);
  Variable latent = encoder->Encode(Variable(x_, false), adjacency_);
  EXPECT_EQ(latent.shape(), Shape({2, 8, 6, 1}));
  EXPECT_EQ(encoder->name(), "GeoMAN");
}

TEST_F(EncoderTest, PoolLatentShape) {
  GraphWaveNetEncoder encoder(SmallConfig(), rng_);
  Variable latent = encoder.Encode(Variable(x_, false), adjacency_);
  EXPECT_EQ(StBackbone::PoolLatent(latent).shape(), Shape({2, 8}));
}

TEST_F(EncoderTest, MtgnnStyleIgnoresAdjacency) {
  BackboneConfig config = SmallConfig();
  config.use_static_supports = false;
  GraphWaveNetEncoder encoder(config, rng_);
  Variable a = encoder.Encode(Variable(x_, false), adjacency_);
  Variable b = encoder.Encode(Variable(x_, false), Tensor::Zeros(Shape{6, 6}));
  EXPECT_TRUE(top::AllClose(a.value(), b.value()));
}

TEST_F(EncoderTest, WrongNodeCountDies) {
  GraphWaveNetEncoder encoder(SmallConfig(), rng_);
  Tensor bad = Tensor::Zeros(Shape{2, 12, 7, 2});
  EXPECT_DEATH(encoder.Encode(Variable(bad, false), adjacency_), "Check failed");
}

TEST(StDecoderTest, ShapesAndValues) {
  Rng rng(6);
  StDecoder decoder(/*latent_channels=*/8, /*latent_time=*/2, /*decoder_hidden=*/16,
                    /*output_steps=*/3, rng);
  Variable latent(Tensor::Ones(Shape{4, 8, 5, 2}), false);
  Variable out = decoder.Forward(latent);
  EXPECT_EQ(out.shape(), Shape({4, 3, 5, 1}));
}

TEST(StDecoderTest, WrongLatentDies) {
  Rng rng(7);
  StDecoder decoder(8, 2, 16, 1, rng);
  Variable latent(Tensor::Ones(Shape{4, 8, 5, 3}), false);  // wrong T'
  EXPECT_DEATH(decoder.Forward(latent), "Check failed");
}

class SimSiamTest : public ::testing::Test {
 protected:
  SimSiamTest() : graph_(graph::GridGraph(2, 3)), rng_(8) {
    encoder_ = std::make_unique<GraphWaveNetEncoder>(SmallConfig(), rng_);
    simsiam_ = std::make_unique<StSimSiam>(encoder_.get(), 8, 0.5f, rng_);
    Rng data_rng(9);
    obs_ = Tensor::RandomUniform(Shape{4, 12, 6, 2}, data_rng);
    adjacency_ = graph_.AdjacencyMatrix();
  }
  graph::SensorNetwork graph_;
  Rng rng_;
  std::unique_ptr<GraphWaveNetEncoder> encoder_;
  std::unique_ptr<StSimSiam> simsiam_;
  Tensor obs_;
  Tensor adjacency_;
};

TEST_F(SimSiamTest, LossIsFiniteAndBackpropagates) {
  augment::AugmentedView v1{obs_, adjacency_};
  augment::AugmentedView v2{obs_, adjacency_};
  Variable loss = simsiam_->Loss(v1, v2);
  EXPECT_EQ(loss.value().NumElements(), 1);
  EXPECT_TRUE(std::isfinite(loss.value().Item()));
  loss.Backward();
  // Projector gets gradients.
  for (const Variable& p : simsiam_->Parameters()) {
    EXPECT_EQ(p.grad().shape(), p.value().shape());
  }
}

TEST_F(SimSiamTest, EncoderReceivesGradientThroughProjection) {
  augment::AugmentedView v1{obs_, adjacency_};
  augment::AugmentedView v2{obs_, adjacency_};
  for (const Variable& p : encoder_->Parameters()) p.ZeroGrad();
  simsiam_->Loss(v1, v2).Backward();
  float total = 0.0f;
  for (const Variable& p : encoder_->Parameters()) {
    total += top::Max(top::Abs(p.grad())).Item();
  }
  EXPECT_GT(total, 0.0f);  // gradient flows via p = h(f(x)), not via sg(z)
}

TEST_F(SimSiamTest, ProjectorSharesEncoderNotParams) {
  // StSimSiam::Parameters() must contain only the projector (encoder is
  // registered once by UrclModel, avoiding double counting).
  const auto named = simsiam_->NamedParameters();
  for (const auto& [name, p] : named) {
    EXPECT_EQ(name.rfind("projector", 0), 0u) << name;
  }
}

class UrclTrainerTest : public ::testing::Test {
 protected:
  UrclConfig SmallUrcl(int64_t nodes) {
    UrclConfig config;
    config.encoder = SmallConfig(nodes);
    config.batch_size = 4;
    config.max_batches_per_epoch = 6;
    config.replay_sample_count = 2;
    config.rmir_scan_size = 6;
    config.rmir_candidate_pool = 4;
    config.buffer_capacity = 32;
    config.proj_hidden = 8;
    config.decoder_hidden = 16;
    return config;
  }

  data::StDataset SmallDataset(int64_t nodes, int64_t steps = 120) {
    data::TrafficConfig traffic;
    traffic.num_nodes = nodes;
    traffic.num_days = 2;
    traffic.steps_per_day = steps / 2;
    traffic.channels = 2;
    generator_ = std::make_unique<data::SyntheticTraffic>(traffic);
    Tensor series = generator_->GenerateSeries();
    normalizer_ = data::MinMaxNormalizer::Fit(series);
    return data::StDataset(normalizer_.Transform(series), data::WindowConfig{12, 1, 0});
  }

  std::unique_ptr<data::SyntheticTraffic> generator_;
  data::MinMaxNormalizer normalizer_;
};

TEST_F(UrclTrainerTest, TrainingReducesLoss) {
  const int64_t nodes = 6;
  data::StDataset dataset = SmallDataset(nodes);
  UrclTrainer trainer(SmallUrcl(nodes), generator_->network());
  const std::vector<float> losses = trainer.TrainStage(dataset, 6);
  ASSERT_EQ(losses.size(), 6u);
  EXPECT_LT(losses.back(), losses.front());
  EXPECT_GT(trainer.buffer().size(), 0);
}

TEST_F(UrclTrainerTest, PredictShape) {
  const int64_t nodes = 6;
  data::StDataset dataset = SmallDataset(nodes);
  UrclTrainer trainer(SmallUrcl(nodes), generator_->network());
  trainer.TrainStage(dataset, 1);
  const auto [x, y] = dataset.MakeBatch({0, 1, 2});
  EXPECT_EQ(FullForecast(trainer, x).shape(), y.shape());
}

TEST_F(UrclTrainerTest, AblationTogglesAllRun) {
  const int64_t nodes = 6;
  data::StDataset dataset = SmallDataset(nodes);
  for (int ablation = 0; ablation < 5; ++ablation) {
    UrclConfig config = SmallUrcl(nodes);
    config.max_batches_per_epoch = 3;
    switch (ablation) {
      case 0: config.enable_mixup = false; break;        // w/o_STU
      case 1: config.enable_rmir = false; break;         // w/o_RMIR
      case 2: config.enable_augmentation = false; break; // w/o_STA
      case 3: config.enable_ssl = false; break;          // w/o_GCL
      case 4: config.enable_replay = false; break;       // plain finetune
    }
    UrclTrainer trainer(config, generator_->network());
    const std::vector<float> losses = trainer.TrainStage(dataset, 1);
    EXPECT_TRUE(std::isfinite(losses[0])) << "ablation " << ablation;
  }
}

TEST_F(UrclTrainerTest, ReplayDisabledKeepsBufferEmpty) {
  const int64_t nodes = 6;
  data::StDataset dataset = SmallDataset(nodes);
  UrclConfig config = SmallUrcl(nodes);
  config.enable_replay = false;
  UrclTrainer trainer(config, generator_->network());
  trainer.TrainStage(dataset, 1);
  EXPECT_EQ(trainer.buffer().size(), 0);
}

TEST_F(UrclTrainerTest, LossHistoryGrows) {
  const int64_t nodes = 6;
  data::StDataset dataset = SmallDataset(nodes);
  UrclConfig config = SmallUrcl(nodes);
  UrclTrainer trainer(config, generator_->network());
  trainer.TrainStage(dataset, 2);
  // 6 batches per epoch, 2 epochs (last partial batches may be skipped).
  EXPECT_GE(trainer.loss_history().size(), 10u);
}

TEST_F(UrclTrainerTest, BackbonesInterchangeable) {
  const int64_t nodes = 6;
  data::StDataset dataset = SmallDataset(nodes);
  for (const BackboneType type :
       {BackboneType::kGraphWaveNet, BackboneType::kDcrnn, BackboneType::kGeoman}) {
    UrclConfig config = SmallUrcl(nodes);
    config.backbone = type;
    config.max_batches_per_epoch = 2;
    UrclTrainer trainer(config, generator_->network());
    const std::vector<float> losses = trainer.TrainStage(dataset, 1);
    EXPECT_TRUE(std::isfinite(losses[0])) << BackboneTypeName(type);
    const auto [x, y] = dataset.MakeBatch({0});
    EXPECT_EQ(FullForecast(trainer, x).shape(), y.shape()) << BackboneTypeName(type);
  }
}

TEST(EpochScheduleTest, InterleavesEvenlySpacedWindows) {
  // 10 windows in batches of 4: three batches, each striding the stage.
  EXPECT_EQ(EpochSchedule(10, 4, /*max_batches_per_epoch=*/0),
            (std::vector<int64_t>{0, 3, 6, 9, 1, 4, 7, 2, 5, 8}));
  // Capped at 2 batches: 8 evenly spaced windows (i * 10 / 8), interleaved.
  EXPECT_EQ(EpochSchedule(10, 4, /*max_batches_per_epoch=*/2),
            (std::vector<int64_t>{0, 2, 5, 7, 1, 3, 6, 8}));
}

TEST(ConfigValidationTest, ValidConfigsProduceNoErrors) {
  EXPECT_TRUE(SmallConfig().Validate().empty());
  UrclConfig config;
  config.encoder = SmallConfig();
  EXPECT_TRUE(config.Validate().empty());
}

TEST(ConfigValidationTest, BackboneConfigReportsEveryBadField) {
  BackboneConfig config = SmallConfig();
  config.num_nodes = 0;
  config.hidden_channels = -1;
  config.num_layers = 0;
  const std::vector<std::string> errors = config.Validate();
  ASSERT_EQ(errors.size(), 3u) << FormatConfigErrors(errors);
  EXPECT_NE(errors[0].find("num_nodes"), std::string::npos);
  EXPECT_NE(errors[1].find("hidden_channels"), std::string::npos);
  EXPECT_NE(errors[2].find("num_layers"), std::string::npos);
}

TEST(ConfigValidationTest, RequiresSomeAdjacencySource) {
  BackboneConfig config = SmallConfig();
  config.use_adaptive_adjacency = false;
  config.use_static_supports = false;
  const std::vector<std::string> errors = config.Validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("adjacency source"), std::string::npos);
}

TEST(ConfigValidationTest, UrclConfigPrefixesEncoderErrorsAndChecksOwnFields) {
  UrclConfig config;
  config.encoder = SmallConfig();
  config.encoder.num_layers = 0;
  config.replay_sample_count = 64;
  config.buffer_capacity = 32;
  config.proj_hidden = 0;
  const std::vector<std::string> errors = config.Validate();
  ASSERT_EQ(errors.size(), 3u) << FormatConfigErrors(errors);
  EXPECT_EQ(errors[0].rfind("encoder: ", 0), 0u);
  EXPECT_NE(errors[1].find("proj_hidden"), std::string::npos);
  EXPECT_NE(errors[2].find("replay_sample_count"), std::string::npos);
}

TEST(ConfigValidationTest, EntryPointsRejectInvalidConfigs) {
  Rng rng(3);
  BackboneConfig bad = SmallConfig();
  bad.num_nodes = 0;
  EXPECT_DEATH(MakeBackbone(BackboneType::kGraphWaveNet, bad, rng),
               "invalid BackboneConfig: num_nodes");
  UrclConfig config;
  config.encoder = SmallConfig();
  config.batch_size = 0;
  EXPECT_DEATH(UrclModel(config, rng), "invalid UrclConfig: batch_size");
}

}  // namespace
}  // namespace core
}  // namespace urcl
