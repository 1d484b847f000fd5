// Shared scaffolding for the table/figure reproduction binaries: scale
// handling, pipeline construction per dataset preset, and model factories.
//
// Every bench accepts:
//   --scale quick|full     preset sizes (default quick; env URCL_BENCH_SCALE)
//   --nodes / --days / --epochs / --batches / --seed   fine-grained overrides
//   --threads N            compute thread count (results are thread-invariant)
#ifndef URCL_BENCH_BENCH_COMMON_H_
#define URCL_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <functional>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baselines/zoo.h"
#include "common/flags.h"
#include "runtime/runtime_flags.h"
#include "core/strategies.h"
#include "core/urcl.h"
#include "data/presets.h"
#include "data/stream.h"
#include "data/synthetic.h"

namespace urcl {
namespace bench {

struct BenchScale {
  std::string name = "quick";
  int64_t nodes = 12;
  int64_t days_15min = 10;  // days for 15-minute presets (96 steps/day)
  int64_t days_5min = 8;    // days for 5-minute presets (288 steps/day)
  int64_t epochs = 6;
  int64_t max_batches_per_epoch = 30;
  int64_t hidden = 8;
  int64_t latent = 16;
  int64_t num_layers = 5;  // paper geometry
  uint64_t seed = 7;
};

// Recorded numbers are only meaningful from an optimized build (the checked-in
// baselines are Release). Shout, don't abort: debug runs are still useful for
// checking that the harness itself works.
inline void WarnIfUnoptimizedBuild() {
#ifndef NDEBUG
  std::fprintf(stderr,
               "********************************************************************\n"
               "* WARNING: this benchmark binary was built WITHOUT NDEBUG          *\n"
               "* (assertions / URCL_CHECK are live). Timings are NOT comparable   *\n"
               "* to the recorded baselines. Rebuild with                          *\n"
               "*   cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release         *\n"
               "* before recording numbers.                                        *\n"
               "********************************************************************\n");
#endif
}

inline BenchScale ResolveScale(const Flags& flags) {
  WarnIfUnoptimizedBuild();
  runtime::ApplyRuntimeFlags(flags);
  BenchScale scale;
  std::string mode = flags.GetString("scale", "");
  if (mode.empty()) {
    const char* env = std::getenv("URCL_BENCH_SCALE");
    mode = env != nullptr ? env : "quick";
  }
  if (mode == "full") {
    scale.name = "full";
    scale.nodes = 32;
    scale.days_15min = 28;
    scale.days_5min = 14;
    scale.epochs = 12;
    scale.max_batches_per_epoch = 60;
    scale.hidden = 16;
    scale.latent = 48;
  }
  scale.nodes = flags.GetInt("nodes", scale.nodes);
  scale.days_15min = flags.GetInt("days", scale.days_15min);
  if (flags.Has("days")) scale.days_5min = scale.days_15min;
  scale.epochs = flags.GetInt("epochs", scale.epochs);
  scale.max_batches_per_epoch = flags.GetInt("batches", scale.max_batches_per_epoch);
  scale.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  return scale;
}

inline int64_t DaysFor(const data::DatasetPreset& preset, const BenchScale& scale) {
  return preset.sampling_interval_min >= 15 ? scale.days_15min : scale.days_5min;
}

// A fully prepared dataset pipeline for one preset.
struct BenchPipeline {
  data::DatasetPreset preset;
  std::unique_ptr<data::SyntheticTraffic> generator;
  data::MinMaxNormalizer normalizer;
  std::unique_ptr<data::StDataset> dataset;
  std::unique_ptr<data::StreamSplitter> stream;
  int64_t target_channel = 0;
};

inline BenchPipeline BuildPipeline(const data::DatasetPreset& preset,
                                   const BenchScale& scale) {
  BenchPipeline p;
  p.preset = preset;
  data::TrafficConfig config =
      preset.MakeTrafficConfig(scale.nodes, DaysFor(preset, scale), scale.seed);
  // Stronger drift at the set boundaries makes the continual-learning effect
  // measurable at reduced scale (the real archives span months).
  config.abrupt_refresh_fraction = 0.7f;
  config.abrupt_phase_jump_steps = 8.0f;
  config.regime_drift_scale = 1.6f;
  p.generator = std::make_unique<data::SyntheticTraffic>(config);
  Tensor series = p.generator->GenerateSeries();
  p.normalizer = data::MinMaxNormalizer::Fit(series);
  p.dataset = std::make_unique<data::StDataset>(p.normalizer.Transform(series),
                                                preset.MakeWindowConfig());
  p.stream = std::make_unique<data::StreamSplitter>(*p.dataset, data::StreamConfig{});
  p.target_channel = preset.MakeWindowConfig().target_channel;
  return p;
}

inline core::UrclConfig MakeUrclConfig(const BenchPipeline& p, const BenchScale& scale) {
  core::UrclConfig config;
  config.encoder.num_nodes = scale.nodes;
  config.encoder.in_channels = p.preset.channels;
  config.encoder.input_steps = p.preset.input_steps;
  config.encoder.hidden_channels = scale.hidden;
  config.encoder.latent_channels = scale.latent;
  config.encoder.num_layers = scale.num_layers;
  config.encoder.adaptive_embedding_dim = 6;
  config.decoder_hidden = 4 * scale.latent;
  config.output_steps = p.preset.output_steps;
  config.proj_hidden = scale.latent;
  config.max_batches_per_epoch = scale.max_batches_per_epoch;
  // Short training budgets: keep the contrastive signal secondary (the paper
  // trains 100 epochs per set with weight 1.0).
  config.ssl_weight = 0.05f;
  config.seed = scale.seed;
  return config;
}

inline baselines::ZooOptions MakeZooOptions(const BenchPipeline& p, const BenchScale& scale) {
  baselines::ZooOptions options;
  options.encoder.num_nodes = scale.nodes;
  options.encoder.in_channels = p.preset.channels;
  options.encoder.input_steps = p.preset.input_steps;
  options.encoder.hidden_channels = scale.hidden;
  options.encoder.latent_channels = scale.latent;
  options.encoder.num_layers = scale.num_layers;
  options.encoder.adaptive_embedding_dim = 6;
  options.deep.decoder_hidden = 4 * scale.latent;
  options.deep.output_steps = p.preset.output_steps;
  options.deep.max_batches_per_epoch = scale.max_batches_per_epoch;
  options.deep.seed = scale.seed;
  options.target_channel = p.target_channel;
  return options;
}

// Averages per-stage MAE/RMSE over `seeds` runs of `run` (which receives the
// seed and returns one StageResult per stage).
inline std::vector<core::StageResult> AverageOverSeeds(
    int64_t seeds, uint64_t base_seed,
    const std::function<std::vector<core::StageResult>(uint64_t)>& run) {
  std::vector<core::StageResult> accumulated;
  for (int64_t s = 0; s < seeds; ++s) {
    const std::vector<core::StageResult> results = run(base_seed + 100 * s);
    if (accumulated.empty()) {
      accumulated = results;
    } else {
      for (size_t i = 0; i < results.size(); ++i) {
        accumulated[i].metrics.mae += results[i].metrics.mae;
        accumulated[i].metrics.rmse += results[i].metrics.rmse;
        accumulated[i].metrics.mape += results[i].metrics.mape;
        accumulated[i].train_seconds += results[i].train_seconds;
        accumulated[i].train_seconds_per_epoch += results[i].train_seconds_per_epoch;
        accumulated[i].infer_seconds_per_observation +=
            results[i].infer_seconds_per_observation;
      }
    }
  }
  for (auto& r : accumulated) {
    r.metrics.mae /= seeds;
    r.metrics.rmse /= seeds;
    r.metrics.mape /= seeds;
    r.train_seconds /= seeds;
    r.train_seconds_per_epoch /= seeds;
    r.infer_seconds_per_observation /= seeds;
  }
  return accumulated;
}

inline void PrintHeader(const std::string& title, const BenchScale& scale) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("(scale=%s: %lld nodes, %lld epochs/stage, %lld batches/epoch; "
              "synthetic data — see DESIGN.md; shapes, not absolute values, are "
              "comparable to the paper)\n\n",
              scale.name.c_str(), static_cast<long long>(scale.nodes),
              static_cast<long long>(scale.epochs),
              static_cast<long long>(scale.max_batches_per_epoch));
}

}  // namespace bench
}  // namespace urcl

#endif  // URCL_BENCH_BENCH_COMMON_H_
