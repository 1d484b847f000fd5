// Plugging a custom spatio-temporal backbone into URCL. The framework is
// backbone-agnostic (Sec. V-B4): anything implementing core::StBackbone can
// serve as the shared STEncoder. This example defines a deliberately simple
// per-node MLP encoder (no graph structure at all), drops it into the
// baseline harness, and compares it against the stock backbones on the same
// drifted stream — showing both the plug-in API and why the graph matters.
//
//   ./custom_backbone [--nodes 12] [--days 10] [--epochs 4]
#include <cstdio>

#include "autograd/ops.h"
#include "baselines/deep_baseline.h"
#include "common/flags.h"
#include "runtime/runtime_flags.h"
#include "common/table_printer.h"
#include "core/strategies.h"
#include "core/urcl.h"
#include "data/presets.h"
#include "data/stream.h"

using namespace urcl;
namespace ag = urcl::autograd;
using urcl::autograd::Variable;

namespace {

// A minimal custom backbone: flattens each node's input window and applies a
// shared two-layer MLP. No spatial mixing, no temporal convolution — the
// simplest thing that satisfies the StBackbone contract.
class PerNodeMlpEncoder : public core::StBackbone {
 public:
  PerNodeMlpEncoder(const core::BackboneConfig& config, Rng& rng) : config_(config) {
    mlp_ = std::make_unique<nn::Mlp>(
        std::vector<int64_t>{config.input_steps * config.in_channels,
                             config.hidden_channels * 4, config.latent_channels},
        rng, nn::Activation::kRelu);
    RegisterChild("mlp", mlp_.get());
  }

  Variable Encode(const Variable& observations, const Tensor& adjacency) const override {
    (void)adjacency;  // deliberately graph-blind
    const int64_t batch = observations.shape().dim(0);
    const int64_t steps = observations.shape().dim(1);
    const int64_t nodes = observations.shape().dim(2);
    const int64_t channels = observations.shape().dim(3);
    // [B, M, N, C] -> [B, N, M*C] -> MLP -> [B, N, L] -> [B, L, N, 1]
    Variable h = ag::Transpose(observations, {0, 2, 1, 3});
    h = ag::Reshape(h, Shape{batch, nodes, steps * channels});
    h = mlp_->Forward(h);
    h = ag::Transpose(h, {0, 2, 1});
    return ag::Reshape(h, Shape{batch, config_.latent_channels, nodes, 1});
  }

  int64_t latent_channels() const override { return config_.latent_channels; }
  int64_t latent_time() const override { return 1; }
  std::string name() const override { return "PerNodeMLP"; }

 private:
  core::BackboneConfig config_;
  std::unique_ptr<nn::Mlp> mlp_;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  runtime::ApplyRuntimeFlags(flags);
  const int64_t nodes = flags.GetInt("nodes", 12);
  const int64_t days = flags.GetInt("days", 10);
  const int64_t epochs = flags.GetInt("epochs", 4);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  flags.ExitOnUnreadFlags();

  const data::DatasetPreset preset = data::MetrLaPreset();
  data::SyntheticTraffic generator(preset.MakeTrafficConfig(nodes, days, seed));
  const Tensor raw = generator.GenerateSeries();
  const data::MinMaxNormalizer normalizer = data::MinMaxNormalizer::Fit(raw);
  data::StDataset dataset(normalizer.Transform(raw), preset.MakeWindowConfig());
  data::StreamSplitter stream(dataset, data::StreamConfig{});

  core::BackboneConfig encoder_config;
  encoder_config.num_nodes = nodes;
  encoder_config.in_channels = preset.channels;
  encoder_config.input_steps = preset.input_steps;
  encoder_config.hidden_channels = 8;
  encoder_config.latent_channels = 16;
  encoder_config.num_layers = 5;
  encoder_config.adaptive_embedding_dim = 6;

  baselines::DeepBaselineOptions deep;
  deep.decoder_hidden = 64;
  deep.seed = seed;
  deep.max_batches_per_epoch = 30;

  core::ProtocolOptions options;
  options.epochs_per_stage = epochs;

  TablePrinter table({"Backbone", "B_set MAE", "I_set4 MAE", "Params"});
  // 1. The custom graph-blind backbone through the shared harness.
  {
    Rng rng(seed);
    baselines::DeepBaseline model("PerNodeMLP",
                                  std::make_unique<PerNodeMlpEncoder>(encoder_config, rng),
                                  deep, generator.network(), rng);
    const int64_t params = model.NumParameters();
    const auto results = core::RunContinualProtocol(model, stream, normalizer, 0, options);
    table.AddRow({"PerNodeMLP (custom)", TablePrinter::Num(results.front().metrics.mae),
                  TablePrinter::Num(results.back().metrics.mae), std::to_string(params)});
  }
  // 2. The stock backbones inside the full URCL framework.
  for (const core::BackboneType type :
       {core::BackboneType::kGraphWaveNet, core::BackboneType::kDcrnn,
        core::BackboneType::kGeoman}) {
    core::UrclConfig config;
    config.backbone = type;
    config.encoder = encoder_config;
    config.decoder_hidden = 64;
    config.ssl_weight = 0.05f;
    config.max_batches_per_epoch = 30;
    config.seed = seed;
    core::UrclTrainer model(config, generator.network());
    const auto results = core::RunContinualProtocol(model, stream, normalizer, 0, options);
    table.AddRow({"URCL + " + core::BackboneTypeName(type),
                  TablePrinter::Num(results.front().metrics.mae),
                  TablePrinter::Num(results.back().metrics.mae),
                  std::to_string(model.model().NumParameters())});
  }
  table.Print();
  std::printf("\nAny core::StBackbone subclass can be used as the shared STEncoder;\n"
              "see PerNodeMlpEncoder above for the minimal contract.\n");
  return 0;
}
