// Reproduces Figure 6: ablation study of URCL's components on METR-LA-like
// and PEMS08-like streams. Variants (Sec. V-B3):
//   URCL      — the full framework
//   w/o_STU   — replay samples concatenated instead of STMixup
//   w/o_RMIR  — uniform random replay sampling instead of RMIR
//   w/o_STA   — no spatio-temporal augmentation (identity views)
//   w/o_GCL   — no GraphCL loss (task loss only)
// Expected shape (paper): removing any component hurts; w/o_STA worst.
#include "bench/bench_common.h"
#include "common/table_printer.h"

using namespace urcl;

namespace {

core::UrclConfig MakeVariant(const std::string& variant, core::UrclConfig config) {
  if (variant == "w/o_STU") config.enable_mixup = false;
  if (variant == "w/o_RMIR") config.enable_rmir = false;
  if (variant == "w/o_STA") config.enable_augmentation = false;
  if (variant == "w/o_GCL") config.enable_ssl = false;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bench::BenchScale scale = bench::ResolveScale(flags);
  const int64_t seeds = flags.GetInt("seeds", 2);
  flags.ExitOnUnreadFlags();
  bench::PrintHeader("Figure 6: RMSE and MAE of URCL and Its Variants", scale);

  const std::vector<data::DatasetPreset> presets = {data::MetrLaPreset(),
                                                    data::Pems08Preset()};
  const std::vector<std::string> variants = {"URCL", "w/o_STU", "w/o_RMIR", "w/o_STA",
                                             "w/o_GCL"};

  for (const data::DatasetPreset& preset : presets) {
    std::printf("Dataset: %s-like\n", preset.name.c_str());
    TablePrinter mae({"Variant", "B_set", "I_set1", "I_set2", "I_set3", "I_set4"});
    TablePrinter rmse({"Variant", "B_set", "I_set1", "I_set2", "I_set3", "I_set4"});
    for (const std::string& variant : variants) {
      const auto results = bench::AverageOverSeeds(seeds, scale.seed, [&](uint64_t seed) {
        bench::BenchScale run_scale = scale;
        run_scale.seed = seed;
        const bench::BenchPipeline p = bench::BuildPipeline(preset, run_scale);
        core::UrclConfig config =
            MakeVariant(variant, bench::MakeUrclConfig(p, run_scale));
        core::UrclTrainer model(config, p.generator->network());
        core::ProtocolOptions options;
        options.epochs_per_stage = run_scale.epochs;
        return core::RunContinualProtocol(model, *p.stream, p.normalizer,
                                          p.target_channel, options);
      });
      std::vector<std::string> mae_row = {variant};
      std::vector<std::string> rmse_row = {variant};
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
