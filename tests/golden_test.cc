// Golden fingerprint of a fixed-seed URCL run (ctest label `kernels`). The
// kernels promise bitwise-unchanged outputs under any rewrite that keeps
// their documented per-element order; this test holds them to it end to end.
// It runs the continual protocol in the paper's configuration (augmentation,
// SSL, RMIR replay and STMixup all on, five-layer GraphWaveNet encoder) on a
// 12-node stream at 1 and 4 threads on both executors, hashes every loss, the
// stage forecasts and the final parameters with FNV-1a, and requires the one
// recorded hash from all four runs.
//
// A second case pins the comparators the same way: EWC (a consolidation,
// then a stage under its penalty) and the zoo's MTGNN.
//
// tanh and exp are in-repo replicas (tensor/simd_math.h), but the hashes
// still take from the C library: ops::Log's logf, Adam's std::pow, the
// synthetic generator's exp/sin/cos and <random>'s distributions. So they
// are only checked against the C library they were recorded with; elsewhere
// the tests are skipped with a message. A change that moves a hash on
// purpose must say so and record the new constant.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include "baselines/ewc.h"
#include "baselines/zoo.h"
#include "core/urcl.h"
#include "data/normalizer.h"
#include "data/presets.h"
#include "data/stream.h"
#include "data/synthetic.h"
#include "runtime/parallel.h"

namespace urcl {
namespace {

// Recorded with glibc 2.36 (the C library named below); see the file comment.
constexpr uint64_t kGoldenHash = 0x5c728809abf975bcULL;
constexpr const char* kGoldenLibc = "2.36";

constexpr int64_t kNodes = 12;
constexpr int64_t kDays = 5;
constexpr uint64_t kSeed = 5;
constexpr int64_t kForecastWindows = 4;

// 64-bit FNV-1a over raw bytes.
class Fnv1a {
 public:
  void Add(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(const Tensor& t) {
    Add(t.data(), static_cast<size_t>(t.NumElements()) * sizeof(float));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct Stream {
  std::unique_ptr<data::SyntheticTraffic> generator;
  std::unique_ptr<data::StDataset> dataset;
  std::unique_ptr<data::StreamSplitter> stream;
};

Stream MakeStream() {
  const data::DatasetPreset preset = data::MetrLaPreset();
  Stream s;
  s.generator =
      std::make_unique<data::SyntheticTraffic>(preset.MakeTrafficConfig(kNodes, kDays, kSeed));
  const Tensor series = s.generator->GenerateSeries();
  const data::MinMaxNormalizer normalizer = data::MinMaxNormalizer::Fit(series);
  s.dataset = std::make_unique<data::StDataset>(normalizer.Transform(series),
                                                preset.MakeWindowConfig());
  s.stream = std::make_unique<data::StreamSplitter>(*s.dataset, data::StreamConfig{});
  return s;
}

// Every paper component on (the UrclConfig defaults) with the benchmark's
// quick-scale widths and the paper's five encoder layers.
core::UrclConfig PaperConfig(exec::ExecutorMode executor) {
  const data::DatasetPreset preset = data::MetrLaPreset();
  core::UrclConfig config;
  config.encoder.num_nodes = kNodes;
  config.encoder.in_channels = preset.channels;
  config.encoder.input_steps = preset.input_steps;
  config.encoder.hidden_channels = 8;
  config.encoder.latent_channels = 16;
  config.encoder.num_layers = 5;
  config.encoder.adaptive_embedding_dim = 6;
  config.decoder_hidden = 64;
  config.proj_hidden = 16;
  config.output_steps = preset.output_steps;
  config.max_batches_per_epoch = 2;
  config.seed = kSeed;
  config.executor = executor;
  return config;
}

struct Fingerprint {
  uint64_t hash = 0;
  std::vector<float> losses;
};

// One epoch per stage over all five stages; after each stage, the forecast
// of the stage's first test windows joins the hash.
Fingerprint RunProtocol(const Stream& s, exec::ExecutorMode executor) {
  core::UrclTrainer trainer(PaperConfig(executor), s.generator->network());
  Fnv1a forecasts;
  for (int64_t stage = 0; stage < s.stream->NumStages(); ++stage) {
    trainer.BeginStage(stage);
    trainer.TrainStage(s.stream->Stage(stage).train, 1);
    std::vector<int64_t> indices;
    for (int64_t i = 0; i < kForecastWindows; ++i) indices.push_back(i);
    core::PredictRequest request;
    request.inputs = s.stream->Stage(stage).test.MakeBatch(indices).first;
    core::PredictResponse response;
    EXPECT_TRUE(trainer.Predict(request, &response).ok());
    forecasts.Add(response.predictions);
  }
  Fingerprint f;
  f.losses = trainer.loss_history();
  Fnv1a hash;
  hash.Add(f.losses.data(), f.losses.size() * sizeof(float));
  const uint64_t forecast_hash = forecasts.value();
  hash.Add(&forecast_hash, sizeof(forecast_hash));
  for (const auto& [name, param] : trainer.model().NamedParameters()) hash.Add(param.value());
  f.hash = hash.value();
  return f;
}

std::string HexLosses(const std::vector<float>& losses) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const float loss : losses) out << ' ' << loss;
  return out.str();
}

TEST(GoldenTest, PaperConfigFingerprintIsUnchanged) {
#if defined(__GLIBC__)
  const std::string libc = gnu_get_libc_version();
  if (libc != kGoldenLibc) {
    GTEST_SKIP() << "golden hash recorded with glibc " << kGoldenLibc << ", running glibc "
                 << libc << " (logf, std::pow, the generator's exp/sin/cos and <random> "
                 << "may differ)";
  }
#else
  GTEST_SKIP() << "golden hash recorded with glibc " << kGoldenLibc
               << "; this C library's logf, std::pow, exp/sin/cos and <random> may differ";
#endif
  const Stream s = MakeStream();
  ASSERT_EQ(s.stream->NumStages(), 5);
  const int saved_threads = runtime::GetNumThreads();
  const bool saved_oversubscribe = runtime::OversubscribeEnabled();
  runtime::SetOversubscribe(true);
  for (const int threads : {1, 4}) {
    for (const exec::ExecutorMode executor :
         {exec::ExecutorMode::kTape, exec::ExecutorMode::kPlan}) {
      runtime::SetNumThreads(threads);
      const Fingerprint f = RunProtocol(s, executor);
      EXPECT_EQ(f.losses.size(), 10u);
      EXPECT_EQ(f.hash, kGoldenHash)
          << std::hex << "hash 0x" << f.hash << " at " << std::dec << threads << " threads, "
          << (executor == exec::ExecutorMode::kTape ? "tape" : "plan")
          << " executor; losses:" << HexLosses(f.losses);
    }
  }
  runtime::SetOversubscribe(saved_oversubscribe);
  runtime::SetNumThreads(saved_threads);
}

// Recorded with glibc 2.36 on the tree before EWC became a DeepBaseline.
constexpr uint64_t kComparatorHash = 0xc236fa4b2e5a798aULL;

// Trains `model` on the first two stages (two epochs each) and hashes every
// epoch loss, the forecast of each stage's first test windows and the final
// parameters. Appends the losses to `losses`.
uint64_t RunComparator(const Stream& s, core::StPredictor& model, std::vector<float>* losses) {
  Fnv1a forecasts;
  for (int64_t stage = 0; stage < 2; ++stage) {
    const std::vector<float> epoch_losses = model.TrainStage(s.stream->Stage(stage).train, 2);
    losses->insert(losses->end(), epoch_losses.begin(), epoch_losses.end());
    std::vector<int64_t> indices;
    for (int64_t i = 0; i < kForecastWindows; ++i) indices.push_back(i);
    core::PredictRequest request;
    request.inputs = s.stream->Stage(stage).test.MakeBatch(indices).first;
    core::PredictResponse response;
    EXPECT_TRUE(model.Predict(request, &response).ok());
    forecasts.Add(response.predictions);
  }
  Fnv1a hash;
  hash.Add(losses->data(), losses->size() * sizeof(float));
  const uint64_t forecast_hash = forecasts.value();
  hash.Add(&forecast_hash, sizeof(forecast_hash));
  for (const autograd::Variable& param : dynamic_cast<const nn::Module&>(model).Parameters()) {
    hash.Add(param.value());
  }
  return hash.value();
}

TEST(GoldenTest, ComparatorFingerprintsAreUnchanged) {
#if defined(__GLIBC__)
  const std::string libc = gnu_get_libc_version();
  if (libc != kGoldenLibc) {
    GTEST_SKIP() << "comparator hash recorded with glibc " << kGoldenLibc << ", running glibc "
                 << libc << " (logf, std::pow, the generator's exp/sin/cos and <random> "
                 << "may differ)";
  }
#else
  GTEST_SKIP() << "comparator hash recorded with glibc " << kGoldenLibc
               << "; this C library's logf, std::pow, exp/sin/cos and <random> may differ";
#endif
  const Stream s = MakeStream();
  const core::UrclConfig paper = PaperConfig(exec::ExecutorMode::kTape);
  baselines::ZooOptions zoo;
  zoo.encoder = paper.encoder;
  zoo.deep.decoder_hidden = paper.decoder_hidden;
  zoo.deep.output_steps = paper.output_steps;
  zoo.deep.max_batches_per_epoch = paper.max_batches_per_epoch;
  zoo.deep.seed = kSeed;
  const int saved_threads = runtime::GetNumThreads();
  const bool saved_oversubscribe = runtime::OversubscribeEnabled();
  runtime::SetOversubscribe(true);
  for (const int threads : {1, 4}) {
    runtime::SetNumThreads(threads);
    std::vector<float> losses;

    Rng rng(kSeed);
    baselines::Ewc ewc(core::MakeBackbone(core::BackboneType::kGraphWaveNet, zoo.encoder, rng),
                       zoo.deep, s.generator->network(), rng, /*lambda=*/500.0f,
                       /*fisher_batches=*/2);
    const uint64_t ewc_hash = RunComparator(s, ewc, &losses);

    const std::unique_ptr<core::StPredictor> mtgnn =
        baselines::MakeBaseline("MTGNN", zoo, s.generator->network());
    const uint64_t mtgnn_hash = RunComparator(s, *mtgnn, &losses);

    Fnv1a combined;
    combined.Add(&ewc_hash, sizeof(ewc_hash));
    combined.Add(&mtgnn_hash, sizeof(mtgnn_hash));
    EXPECT_EQ(losses.size(), 8u);
    EXPECT_EQ(combined.value(), kComparatorHash)
        << std::hex << "hash 0x" << combined.value() << " (EWC 0x" << ewc_hash << ", MTGNN 0x"
        << mtgnn_hash << ") at " << std::dec << threads << " threads; losses:"
        << HexLosses(losses);
  }
  runtime::SetOversubscribe(saved_oversubscribe);
  runtime::SetNumThreads(saved_threads);
}

}  // namespace
}  // namespace urcl
