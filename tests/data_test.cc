#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "data/dataset.h"
#include "data/metrics.h"
#include "data/normalizer.h"
#include "data/presets.h"
#include "data/stream.h"
#include "data/synthetic.h"
#include "tensor/tensor_ops.h"

namespace urcl {
namespace data {
namespace {

// Small ramp series: value(t, n, c) = 100*t + 10*n + c.
Tensor RampSeries(int64_t steps, int64_t nodes, int64_t channels) {
  Tensor series(Shape{steps, nodes, channels});
  for (int64_t t = 0; t < steps; ++t) {
    for (int64_t n = 0; n < nodes; ++n) {
      for (int64_t c = 0; c < channels; ++c) {
        series.Set({t, n, c}, static_cast<float>(100 * t + 10 * n + c));
      }
    }
  }
  return series;
}

TEST(DatasetTest, WindowCountAndContents) {
  StDataset dataset(RampSeries(10, 2, 2), WindowConfig{3, 1, 0});
  EXPECT_EQ(dataset.NumSamples(), 7);  // 10 - 3 - 1 + 1
  const StSample s = dataset.GetSample(0);
  EXPECT_EQ(s.inputs.shape(), Shape({3, 2, 2}));
  EXPECT_EQ(s.targets.shape(), Shape({1, 2, 1}));
  EXPECT_FLOAT_EQ(s.inputs.At({0, 0, 0}), 0.0f);
  EXPECT_FLOAT_EQ(s.inputs.At({2, 1, 1}), 211.0f);
  EXPECT_FLOAT_EQ(s.targets.At({0, 0, 0}), 300.0f);  // t=3, channel 0
  EXPECT_EQ(s.time_slot, 2);
}

TEST(DatasetTest, TargetChannelSelection) {
  StDataset dataset(RampSeries(6, 2, 3), WindowConfig{2, 1, 2});
  const StSample s = dataset.GetSample(1);
  EXPECT_FLOAT_EQ(s.targets.At({0, 1, 0}), 100.0f * 3 + 10.0f + 2.0f);
}

TEST(DatasetTest, MultiStepTargets) {
  StDataset dataset(RampSeries(10, 1, 1), WindowConfig{3, 2, 0});
  EXPECT_EQ(dataset.NumSamples(), 6);
  const StSample s = dataset.GetSample(0);
  EXPECT_EQ(s.targets.shape(), Shape({2, 1, 1}));
  EXPECT_FLOAT_EQ(s.targets.At({1, 0, 0}), 400.0f);
}

TEST(DatasetTest, MakeBatchStacks) {
  StDataset dataset(RampSeries(10, 2, 2), WindowConfig{3, 1, 0});
  const auto [x, y] = dataset.MakeBatch({0, 2, 4});
  EXPECT_EQ(x.shape(), Shape({3, 3, 2, 2}));
  EXPECT_EQ(y.shape(), Shape({3, 1, 2, 1}));
  EXPECT_FLOAT_EQ(x.At({1, 0, 0, 0}), 200.0f);
}

TEST(DatasetTest, SliceOffsetsWindows) {
  StDataset dataset(RampSeries(20, 1, 1), WindowConfig{2, 1, 0});
  StDataset sub = dataset.Slice(5, 10);
  EXPECT_EQ(sub.num_steps(), 10);
  EXPECT_FLOAT_EQ(sub.GetSample(0).inputs.At({0, 0, 0}), 500.0f);
}

TEST(DatasetTest, TooFewStepsYieldsZeroSamples) {
  StDataset dataset(RampSeries(3, 1, 1), WindowConfig{3, 1, 0});
  EXPECT_EQ(dataset.NumSamples(), 0);
}

TEST(StreamSplitterTest, StageNamesAndCoverage) {
  StDataset dataset(RampSeries(400, 2, 1), WindowConfig{4, 1, 0});
  StreamSplitter stream(dataset, StreamConfig{});
  ASSERT_EQ(stream.NumStages(), 5);
  EXPECT_EQ(stream.Stage(0).name, "B_set");
  EXPECT_EQ(stream.Stage(4).name, "I_set4");
  // Base = 30% of 400 = 120 steps; increments ~70 each.
  EXPECT_EQ(stream.Stage(0).train.num_steps() + stream.Stage(0).val.num_steps() +
                stream.Stage(0).test.num_steps(),
            120);
  // Stages are contiguous and ordered.
  EXPECT_EQ(stream.Stage(1).series_offset, 120);
  EXPECT_GT(stream.Stage(2).series_offset, stream.Stage(1).series_offset);
}

TEST(StreamSplitterTest, SplitsAreTemporallyOrdered) {
  StDataset dataset(RampSeries(500, 1, 1), WindowConfig{4, 1, 0});
  StreamSplitter stream(dataset, StreamConfig{});
  for (int64_t i = 0; i < stream.NumStages(); ++i) {
    const StreamStage& stage = stream.Stage(i);
    // Train values precede test values within a stage (ramp is increasing).
    const float last_train = stage.train.series().At({stage.train.num_steps() - 1, 0, 0});
    const float first_test = stage.test.series().At({0, 0, 0});
    EXPECT_LT(last_train, first_test);
  }
}

TEST(StreamSplitterTest, TooShortDies) {
  StDataset dataset(RampSeries(30, 1, 1), WindowConfig{4, 1, 0});
  EXPECT_DEATH(StreamSplitter(dataset, StreamConfig{}), "too short");
}

TEST(MinMaxNormalizerTest, TransformsToUnitInterval) {
  Rng rng(1);
  Tensor series = Tensor::RandomUniform(Shape{50, 3, 2}, rng, -10.0f, 90.0f);
  const MinMaxNormalizer norm = MinMaxNormalizer::Fit(series);
  const Tensor scaled = norm.Transform(series);
  EXPECT_GE(ops::Min(scaled).Item(), 0.0f);
  EXPECT_LE(ops::Max(scaled).Item(), 1.0f);
}

TEST(MinMaxNormalizerTest, RoundTrip) {
  Rng rng(2);
  Tensor series = Tensor::RandomUniform(Shape{20, 2, 3}, rng, 5.0f, 25.0f);
  const MinMaxNormalizer norm = MinMaxNormalizer::Fit(series);
  const Tensor scaled = norm.Transform(series);
  for (int64_t c = 0; c < 3; ++c) {
    const Tensor channel = ops::Slice(scaled, {0, 0, c}, {20, 2, 1});
    EXPECT_TRUE(ops::AllClose(norm.InverseTransformChannel(channel, c),
                              ops::Slice(series, {0, 0, c}, {20, 2, 1}), 1e-3f))
        << "channel " << c;
  }
}

TEST(MinMaxNormalizerTest, ChannelwiseIndependence) {
  Tensor series(Shape{2, 1, 2});
  series.Set({0, 0, 0}, 0.0f);
  series.Set({1, 0, 0}, 10.0f);
  series.Set({0, 0, 1}, 100.0f);
  series.Set({1, 0, 1}, 200.0f);
  const MinMaxNormalizer norm = MinMaxNormalizer::Fit(series);
  EXPECT_FLOAT_EQ(norm.min(0), 0.0f);
  EXPECT_FLOAT_EQ(norm.max(1), 200.0f);
  const Tensor t = norm.Transform(series);
  EXPECT_FLOAT_EQ(t.At({1, 0, 0}), 1.0f);
  EXPECT_FLOAT_EQ(t.At({0, 0, 1}), 0.0f);
}

TEST(MinMaxNormalizerTest, InverseChannelOnPredictions) {
  Tensor series(Shape{2, 1, 2});
  series.Set({0, 0, 0}, 0.0f);
  series.Set({1, 0, 0}, 50.0f);
  series.Set({0, 0, 1}, 0.0f);
  series.Set({1, 0, 1}, 1.0f);
  const MinMaxNormalizer norm = MinMaxNormalizer::Fit(series);
  Tensor predictions = Tensor::Full(Shape{3, 1, 1}, 0.5f);
  const Tensor restored = norm.InverseTransformChannel(predictions, 0);
  EXPECT_FLOAT_EQ(restored.FlatAt(0), 25.0f);
}

TEST(MinMaxNormalizerTest, ConstantChannelIsSafe) {
  Tensor series = Tensor::Full(Shape{10, 1, 1}, 7.0f);
  const MinMaxNormalizer norm = MinMaxNormalizer::Fit(series);
  const Tensor t = norm.Transform(series);
  EXPECT_TRUE(ops::AllFinite(t));
}

TEST(MetricsTest, KnownValues) {
  Tensor pred = Tensor::FromVector(Shape{4}, {1, 2, 3, 4});
  Tensor target = Tensor::FromVector(Shape{4}, {2, 2, 5, 4});
  const EvalMetrics m = ComputeMetrics(pred, target);
  EXPECT_DOUBLE_EQ(m.mae, 0.75);
  EXPECT_NEAR(m.rmse, std::sqrt((1.0 + 0.0 + 4.0 + 0.0) / 4.0), 1e-9);
  EXPECT_EQ(m.count, 4);
}

TEST(MetricsTest, AccumulatorMatchesSinglePass) {
  Rng rng(4);
  Tensor p1 = Tensor::RandomNormal(Shape{10}, rng);
  Tensor t1 = Tensor::RandomNormal(Shape{10}, rng);
  Tensor p2 = Tensor::RandomNormal(Shape{6}, rng);
  Tensor t2 = Tensor::RandomNormal(Shape{6}, rng);
  MetricsAccumulator acc;
  acc.Add(p1, t1);
  acc.Add(p2, t2);
  const EvalMetrics split = acc.Result();
  const EvalMetrics joint =
      ComputeMetrics(ops::Concat({p1, p2}, 0), ops::Concat({t1, t2}, 0));
  EXPECT_NEAR(split.mae, joint.mae, 1e-9);
  EXPECT_NEAR(split.rmse, joint.rmse, 1e-9);
}

TEST(MetricsTest, EmptyAccumulatorDies) {
  MetricsAccumulator acc;
  EXPECT_DEATH(acc.Result(), "no finite samples");
}

TEST(MetricsTest, NonFinitePairsAreSkippedAndCounted) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // Elements 1 (nan pred), 2 (inf target), 3 (both) must be excluded; the
  // finite elements 0 and 4 carry the metric.
  Tensor pred = Tensor::FromVector(Shape{5}, {1.0f, nan, 3.0f, nan, 4.0f});
  Tensor target = Tensor::FromVector(Shape{5}, {2.0f, 2.0f, inf, inf, 4.0f});
  const EvalMetrics m = ComputeMetrics(pred, target);
  EXPECT_EQ(m.count, 2);
  EXPECT_EQ(m.non_finite, 3);
  EXPECT_DOUBLE_EQ(m.mae, 0.5);
  EXPECT_NEAR(m.rmse, std::sqrt(0.5), 1e-9);
}

TEST(MetricsTest, AllNonFiniteDiesWithDiagnostic) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  MetricsAccumulator acc;
  acc.Add(Tensor::FromVector(Shape{2}, {nan, nan}), Tensor::Full(Shape{2}, 1.0f));
  EXPECT_DEATH(acc.Result(), "2 non-finite element pair\\(s\\)");
}

TEST(SyntheticTest, SeriesShapeAndFiniteness) {
  TrafficConfig config;
  config.num_nodes = 8;
  config.num_days = 3;
  config.steps_per_day = 48;
  config.channels = 3;
  SyntheticTraffic generator(config);
  const Tensor series = generator.GenerateSeries();
  EXPECT_EQ(series.shape(), Shape({144, 8, 3}));
  EXPECT_TRUE(ops::AllFinite(series));
  // Speeds positive, occupancy within [0, 100].
  for (int64_t t = 0; t < series.dim(0); ++t) {
    for (int64_t n = 0; n < 8; ++n) {
      EXPECT_GT(series.At({t, n, 0}), 0.0f);
      EXPECT_GE(series.At({t, n, 2}), 0.0f);
      EXPECT_LE(series.At({t, n, 2}), 100.0f);
    }
  }
}

TEST(SyntheticTest, DeterministicPerSeed) {
  TrafficConfig config;
  config.num_nodes = 6;
  config.num_days = 2;
  config.steps_per_day = 24;
  SyntheticTraffic g1(config), g2(config);
  EXPECT_TRUE(ops::AllClose(g1.GenerateSeries(), g2.GenerateSeries(), 0.0f, 0.0f));
  config.seed = 99;
  SyntheticTraffic g3(config);
  EXPECT_FALSE(ops::AllClose(g1.GenerateSeries(), g3.GenerateSeries()));
}

TEST(SyntheticTest, RushHourCongestionPeaks) {
  TrafficConfig config;
  config.num_nodes = 6;
  config.num_days = 1;
  config.steps_per_day = 96;
  config.incident_rate = 0.0f;
  SyntheticTraffic generator(config);
  // Rush hour (8:30 -> step 34) should be more congested than 3am (step 12).
  double rush = 0.0, night = 0.0;
  for (int64_t n = 0; n < 6; ++n) {
    rush += generator.CongestionAt(0, 34, n);
    night += generator.CongestionAt(0, 12, n);
  }
  EXPECT_GT(rush, night * 1.5);
}

TEST(SyntheticTest, WeekendsAreLighter) {
  TrafficConfig config;
  config.num_nodes = 4;
  config.num_days = 7;
  config.steps_per_day = 96;
  config.incident_rate = 0.0f;
  SyntheticTraffic generator(config);
  // Day 0 = weekday, day 5 = weekend; compare morning rush congestion.
  double weekday = 0.0, weekend = 0.0;
  for (int64_t n = 0; n < 4; ++n) {
    weekday += generator.CongestionAt(0, 34, n);
    weekend += generator.CongestionAt(5, 34, n);
  }
  EXPECT_GT(weekday, weekend);
}

TEST(SyntheticTest, AbruptDriftChangesPattern) {
  TrafficConfig config;
  config.num_nodes = 10;
  config.num_days = 4;
  config.steps_per_day = 96;
  config.incident_rate = 0.0f;
  config.abrupt_drift_days = {2};
  config.abrupt_refresh_fraction = 1.0f;
  config.abrupt_phase_jump_steps = 8.0f;
  SyntheticTraffic generator(config);
  // Compare the same weekday step across the drift boundary: distribution of
  // congestion across nodes should change materially.
  double diff = 0.0;
  for (int64_t n = 0; n < 10; ++n) {
    diff += std::fabs(generator.CongestionAt(1, 34, n) - generator.CongestionAt(3, 34, n));
  }
  EXPECT_GT(diff / 10.0, 0.03);
}

TEST(SyntheticTest, NoDriftKeepsWeekdaysAligned) {
  TrafficConfig config;
  config.num_nodes = 6;
  config.num_days = 9;
  config.steps_per_day = 96;
  config.incident_rate = 0.0f;
  config.noise_std = 0.0f;
  SyntheticTraffic generator(config);
  // Day 1 and day 8 are both non-drifted weekdays: congestion matches.
  for (int64_t n = 0; n < 6; ++n) {
    EXPECT_NEAR(generator.CongestionAt(1, 40, n), generator.CongestionAt(8, 40, n), 1e-3);
  }
}

TEST(PresetTest, TableOneStatistics) {
  const auto presets = AllPresets();
  ASSERT_EQ(presets.size(), 4u);
  EXPECT_EQ(presets[0].name, "METR-LA");
  EXPECT_EQ(presets[0].paper_num_nodes, 207);
  EXPECT_EQ(presets[1].paper_num_nodes, 325);
  EXPECT_EQ(presets[2].sampling_interval_min, 5);
  EXPECT_EQ(presets[3].channels, 3);
  EXPECT_TRUE(presets[0].speed_target);
  EXPECT_FALSE(presets[3].speed_target);
  for (const auto& p : presets) {
    EXPECT_EQ(p.input_steps, 12);
    EXPECT_EQ(p.output_steps, 1);
  }
}

TEST(PresetTest, TrafficConfigHasDriftAtBoundaries) {
  const DatasetPreset preset = MetrLaPreset();
  const TrafficConfig config = preset.MakeTrafficConfig(16, 20, 1);
  EXPECT_EQ(config.steps_per_day, 96);
  ASSERT_EQ(config.abrupt_drift_days.size(), 4u);
  EXPECT_EQ(config.abrupt_drift_days[0], 6);   // 30% of 20
  EXPECT_EQ(config.abrupt_drift_days[3], 17);  // 82.5% of 20 -> 16.5 -> 17
}

TEST(PresetTest, WindowTargetsFlowForPems) {
  EXPECT_EQ(Pems08Preset().MakeWindowConfig().target_channel, 1);
  EXPECT_EQ(MetrLaPreset().MakeWindowConfig().target_channel, 0);
}

}  // namespace
}  // namespace data
}  // namespace urcl
