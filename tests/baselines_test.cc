#include <gtest/gtest.h>

#include <cmath>

#include "baselines/arima.h"
#include "baselines/historical_average.h"
#include "baselines/zoo.h"
#include "data/synthetic.h"
#include "graph/generator.h"
#include "tensor/tensor_ops.h"

#include "predict_util.h"

namespace urcl {
namespace baselines {
namespace {

TEST(SolveLinearSystemTest, SolvesKnownSystem) {
  // 2x + y = 5; x + 3y = 10  ->  x = 1, y = 3.
  const std::vector<float> x = SolveLinearSystem({{2, 1}, {1, 3}}, {5, 10});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0f, 1e-5);
  EXPECT_NEAR(x[1], 3.0f, 1e-5);
}

TEST(SolveLinearSystemTest, HandlesSingularGracefully) {
  const std::vector<float> x = SolveLinearSystem({{1, 1}, {1, 1}}, {2, 2});
  for (const float v : x) EXPECT_TRUE(std::isfinite(v));
}

// Builds a dataset from a known AR(1) process: x_t = 0.8 x_{t-1} + noise.
data::StDataset Ar1Dataset(int64_t steps, int64_t nodes, float phi, float noise,
                           uint64_t seed) {
  Rng rng(seed);
  Tensor series(Shape{steps, nodes, 1});
  std::vector<float> state(static_cast<size_t>(nodes), 1.0f);
  for (int64_t t = 0; t < steps; ++t) {
    for (int64_t n = 0; n < nodes; ++n) {
      state[static_cast<size_t>(n)] =
          phi * state[static_cast<size_t>(n)] + rng.Normal(0.0f, noise);
      series.Set({t, n, 0}, state[static_cast<size_t>(n)]);
    }
  }
  return data::StDataset(series, data::WindowConfig{12, 1, 0});
}

TEST(ArimaTest, RecoversArCoefficient) {
  data::StDataset dataset = Ar1Dataset(600, 2, 0.8f, 0.1f, 1);
  ArimaPredictor arima(ArimaOptions{/*ar_order=*/2, /*difference=*/0}, 1, 0);
  arima.TrainStage(dataset, 1);
  // phi_1 should be close to 0.8, phi_2 close to 0.
  const std::vector<float>& w = arima.Coefficients(0);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_NEAR(w[1], 0.8f, 0.12f);
  EXPECT_NEAR(w[2], 0.0f, 0.15f);
}

TEST(ArimaTest, PredictsArProcessWell) {
  data::StDataset dataset = Ar1Dataset(600, 2, 0.9f, 0.05f, 2);
  ArimaPredictor arima(ArimaOptions{2, 0}, 1, 0);
  arima.TrainStage(dataset, 1);
  const auto [x, y] = dataset.MakeBatch({100, 200, 300});
  const Tensor pred = FullForecast(arima, x);
  EXPECT_EQ(pred.shape(), y.shape());
  const data::EvalMetrics m = data::ComputeMetrics(pred, y);
  EXPECT_LT(m.mae, 0.15);
}

TEST(ArimaTest, DifferencingHandlesTrend) {
  // Linear trend + AR noise: differencing should help.
  Tensor series(Shape{400, 1, 1});
  Rng rng(3);
  for (int64_t t = 0; t < 400; ++t) {
    series.Set({t, 0, 0}, 0.5f * static_cast<float>(t) + rng.Normal(0.0f, 0.2f));
  }
  data::StDataset dataset(series, data::WindowConfig{12, 1, 0});
  ArimaPredictor arima(ArimaOptions{2, 1}, 1, 0);
  arima.TrainStage(dataset, 1);
  const auto [x, y] = dataset.MakeBatch({300});
  const Tensor pred = FullForecast(arima, x);
  EXPECT_NEAR(pred.FlatAt(0), y.FlatAt(0), 1.5f);
}

TEST(ArimaTest, MultiStepForecast) {
  data::StDataset dataset = Ar1Dataset(300, 1, 0.9f, 0.05f, 4);
  ArimaPredictor arima(ArimaOptions{2, 0}, /*output_steps=*/3, 0);
  arima.TrainStage(dataset, 1);
  Tensor window = dataset.GetSample(50).inputs.Reshape(Shape{1, 12, 1, 1});
  const Tensor pred = FullForecast(arima, window);
  EXPECT_EQ(pred.shape(), Shape({1, 3, 1, 1}));
  EXPECT_TRUE(ops::AllFinite(pred));
}

TEST(ArimaTest, PredictBeforeTrainDies) {
  ArimaPredictor arima(ArimaOptions{}, 1, 0);
  Tensor x = Tensor::Ones(Shape{1, 12, 2, 1});
  EXPECT_DEATH(FullForecast(arima, x), "trained before prediction");
}

TEST(HistoricalAverageTest, PredictsWindowMean) {
  HistoricalAverage ha(2, 0);
  Tensor x(Shape{1, 4, 1, 2});
  for (int64_t t = 0; t < 4; ++t) {
    x.Set({0, t, 0, 0}, static_cast<float>(t + 1));  // mean = 2.5
    x.Set({0, t, 0, 1}, 100.0f);                     // other channel ignored
  }
  const Tensor pred = FullForecast(ha, x);
  EXPECT_EQ(pred.shape(), Shape({1, 2, 1, 1}));
  EXPECT_FLOAT_EQ(pred.FlatAt(0), 2.5f);
  EXPECT_FLOAT_EQ(pred.FlatAt(1), 2.5f);
}

class ZooTest : public ::testing::Test {
 protected:
  ZooTest() {
    data::TrafficConfig traffic;
    traffic.num_nodes = 6;
    traffic.num_days = 2;
    traffic.steps_per_day = 60;
    traffic.channels = 2;
    generator_ = std::make_unique<data::SyntheticTraffic>(traffic);
    Tensor series = generator_->GenerateSeries();
    normalizer_ = data::MinMaxNormalizer::Fit(series);
    dataset_ = std::make_unique<data::StDataset>(normalizer_.Transform(series),
                                                 data::WindowConfig{12, 1, 0});
    options_.encoder.num_nodes = 6;
    options_.encoder.in_channels = 2;
    options_.encoder.input_steps = 12;
    options_.encoder.hidden_channels = 4;
    options_.encoder.latent_channels = 8;
    options_.encoder.num_layers = 3;
    options_.encoder.adaptive_embedding_dim = 3;
    options_.deep.decoder_hidden = 16;
    options_.deep.max_batches_per_epoch = 3;
    options_.deep.batch_size = 4;
  }
  std::unique_ptr<data::SyntheticTraffic> generator_;
  data::MinMaxNormalizer normalizer_;
  std::unique_ptr<data::StDataset> dataset_;
  ZooOptions options_;
};

TEST_F(ZooTest, AllBaselinesTrainAndPredict) {
  for (const std::string& name : BaselineNames()) {
    auto model = MakeBaseline(name, options_, generator_->network());
    ASSERT_NE(model, nullptr) << name;
    EXPECT_EQ(model->name(), name);
    const std::vector<float> losses = model->TrainStage(*dataset_, 1);
    EXPECT_FALSE(losses.empty()) << name;
    EXPECT_TRUE(std::isfinite(losses[0])) << name;
    const auto [x, y] = dataset_->MakeBatch({0, 1});
    const Tensor pred = FullForecast(*model, x);
    EXPECT_EQ(pred.shape(), y.shape()) << name;
    EXPECT_TRUE(ops::AllFinite(pred)) << name;
  }
}

TEST_F(ZooTest, UnknownBaselineDies) {
  EXPECT_DEATH(MakeBaseline("NotAModel", options_, generator_->network()),
               "unknown baseline");
}

TEST_F(ZooTest, DeepBaselineLossDecreases) {
  auto model = MakeBaseline("STGCN", options_, generator_->network());
  options_.deep.max_batches_per_epoch = 8;
  const std::vector<float> losses = model->TrainStage(*dataset_, 5);
  EXPECT_LT(losses.back(), losses.front());
}

TEST_F(ZooTest, EvaluatePredictorProducesDenormalizedMetrics) {
  auto model = MakeBaseline("HistoricalAverage", options_, generator_->network());
  model->TrainStage(*dataset_, 1);
  const data::EvalMetrics m =
      core::EvaluatePredictor(*model, *dataset_, normalizer_, 0);
  // Speeds are tens of mph; denormalized MAE must be in real units.
  EXPECT_GT(m.mae, 0.1);
  EXPECT_LT(m.mae, 60.0);
  EXPECT_GE(m.rmse, m.mae);
}

}  // namespace
}  // namespace baselines
}  // namespace urcl
