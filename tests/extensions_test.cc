// Tests for the extension features: the EWC baseline and the CSV writer.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "baselines/ewc.h"
#include "common/csv_writer.h"
#include "core/urcl.h"
#include "data/synthetic.h"
#include "tensor/tensor_ops.h"

#include "predict_util.h"

namespace urcl {
namespace {

namespace top = ::urcl::ops;

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

  // EWC on SmallConfig()'s encoder and decoder widths, two Fisher batches.
  std::unique_ptr<baselines::Ewc> MakeEwc(float lambda) const {
    const core::UrclConfig base = SmallConfig();
    baselines::DeepBaselineOptions options;
    options.decoder_hidden = base.decoder_hidden;
    options.batch_size = 4;
    options.max_batches_per_epoch = 5;
    Rng rng(options.seed);
    return std::make_unique<baselines::Ewc>(
        core::MakeBackbone(core::BackboneType::kGraphWaveNet, base.encoder, rng), options,
        generator_->network(), rng, lambda, /*fisher_batches=*/2);
  }

  std::unique_ptr<data::SyntheticTraffic> generator_;
  data::MinMaxNormalizer normalizer_;
  std::unique_ptr<data::StDataset> dataset_;
  std::unique_ptr<data::StDataset> train_;
  std::unique_ptr<data::StDataset> val_;
};

TEST_F(TrainerFixture, EwcTrainsAndConsolidates) {
  const std::unique_ptr<baselines::Ewc> trainer = MakeEwc(500.0f);
  EXPECT_FALSE(trainer->consolidated());
  EXPECT_FLOAT_EQ(trainer->PenaltyValue(), 0.0f);

  const std::vector<float> losses = trainer->TrainStage(*train_, 2);
  EXPECT_EQ(losses.size(), 2u);
  EXPECT_TRUE(trainer->consolidated());
  // Right after consolidation theta == theta*, penalty is zero.
  EXPECT_NEAR(trainer->PenaltyValue(), 0.0f, 1e-6f);

  // Training a second stage moves parameters; the penalty becomes positive
  // during training but is re-anchored at the end. Probe mid-state by
  // training once more and checking predictions still work.
  trainer->TrainStage(*val_, 1);
  const auto [x, y] = val_->MakeBatch({0});
  EXPECT_TRUE(top::AllFinite(FullForecast(*trainer, x)));
}

TEST_F(TrainerFixture, EwcPenaltyResistsParameterDrift) {
  const std::unique_ptr<baselines::Ewc> with_ewc = MakeEwc(1000.0f);
  with_ewc->TrainStage(*train_, 3);
  const auto [x, y] = train_->MakeBatch({0, 1, 2, 3});
  const Tensor before = FullForecast(*with_ewc, x);
  // Train on a very different slice; EWC should keep predictions on the
  // original data closer than a lambda=~0 run would.
  const std::unique_ptr<baselines::Ewc> without_ewc = MakeEwc(1e-6f);
  without_ewc->TrainStage(*train_, 3);
  const Tensor before_weak = FullForecast(*without_ewc, x);

  with_ewc->TrainStage(*val_, 3);
  without_ewc->TrainStage(*val_, 3);
  const float drift_ewc = top::MaxAbsDiff(FullForecast(*with_ewc, x), before);
  const float drift_weak = top::MaxAbsDiff(FullForecast(*without_ewc, x), before_weak);
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
