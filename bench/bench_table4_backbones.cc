// Reproduces Table IV: effect of different backbones on METR-LA-like and
// PEMS04-like streams. The URCL framework is run with its default CNN-based
// GraphWaveNet encoder and with the RNN-based DCRNN / attention-based GeoMAN
// encoders swapped in (Sec. V-B4). Expected shape (paper): URCL/GraphWaveNet
// best in most cells, the other backbones close behind — the framework is
// backbone-agnostic.
#include "bench/bench_common.h"
#include "common/table_printer.h"

using namespace urcl;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bench::BenchScale scale = bench::ResolveScale(flags);
  const int64_t seeds = flags.GetInt("seeds", 2);
  flags.ExitOnUnreadFlags();
  bench::PrintHeader("Table IV: Effect of Various Backbones", scale);

  struct BackboneChoice {
    std::string label;
    core::BackboneType type;
  };
  const std::vector<BackboneChoice> backbones = {
      {"DCRNN", core::BackboneType::kDcrnn},
      {"GeoMAN", core::BackboneType::kGeoman},
      {"URCL (GraphWaveNet)", core::BackboneType::kGraphWaveNet},
  };

  for (const data::DatasetPreset& preset :
       {data::MetrLaPreset(), data::Pems04Preset()}) {
    std::printf("Dataset: %s-like\n", preset.name.c_str());
    TablePrinter mae({"Backbone", "B_set", "I_set1", "I_set2", "I_set3", "I_set4"});
    TablePrinter rmse({"Backbone", "B_set", "I_set1", "I_set2", "I_set3", "I_set4"});
    for (const BackboneChoice& backbone : backbones) {
      const auto results = bench::AverageOverSeeds(
          seeds, scale.seed, [&](uint64_t seed) {
            bench::BenchScale run_scale = scale;
            run_scale.seed = seed;
            const bench::BenchPipeline p = bench::BuildPipeline(preset, run_scale);
            core::UrclConfig config = bench::MakeUrclConfig(p, run_scale);
            config.backbone = backbone.type;
            core::UrclTrainer model(config, p.generator->network());
            core::ProtocolOptions options;
            options.epochs_per_stage = run_scale.epochs;
            return core::RunContinualProtocol(model, *p.stream, p.normalizer,
                                              p.target_channel, options);
          });
      std::vector<std::string> mae_row = {backbone.label};
      std::vector<std::string> rmse_row = {backbone.label};
      for (const core::StageResult& r : results) {
        mae_row.push_back(TablePrinter::Num(r.metrics.mae));
        rmse_row.push_back(TablePrinter::Num(r.metrics.rmse));
      }
      mae.AddRow(mae_row);
      rmse.AddRow(rmse_row);
    }
    std::printf("MAE:\n");
    mae.Print();
    std::printf("RMSE:\n");
    rmse.Print();
    std::printf("\n");
  }
  return 0;
}
