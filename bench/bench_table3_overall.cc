// Reproduces Table III: overall accuracy on all four datasets. Every
// baseline (ARIMA, DCRNN, STGCN, MTGNN, AGCRN, STGODE) is retrained on each
// base/incremental set (the replay-based continual protocol of Fig. 5) and
// compared with URCL. Expected shape (paper): URCL best in most cells;
// ARIMA trails the deep models (worst on flow datasets); the deep baselines
// cluster together.
//
// Extra flags: --seeds K (average over K seeds), --models a,b,c (subset),
// --datasets metr-la,pems-bay,pems04,pems08 (subset).
#include <sstream>

#include "bench/bench_common.h"
#include "common/table_printer.h"

using namespace urcl;

namespace {

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bench::BenchScale scale = bench::ResolveScale(flags);
  const int64_t seeds = flags.GetInt("seeds", 2);
  const std::vector<std::string> models = SplitCsv(
      flags.GetString("models", "ARIMA,DCRNN,STGCN,MTGNN,AGCRN,STGODE,URCL"));
  const std::vector<std::string> wanted = SplitCsv(
      flags.GetString("datasets", "metr-la,pems-bay,pems04,pems08"));
  flags.ExitOnUnreadFlags();
  bench::PrintHeader("Table III: Overall Accuracy on Four Datasets", scale);

  std::vector<data::DatasetPreset> presets;
  for (const data::DatasetPreset& preset : data::AllPresets()) {
    std::string key = preset.name;
    for (auto& c : key) c = c == '-' ? '-' : static_cast<char>(std::tolower(c));
    for (const std::string& w : wanted) {
      if (key == w) presets.push_back(preset);
    }
  }

  for (const data::DatasetPreset& preset : presets) {
    std::printf("Dataset: %s-like\n", preset.name.c_str());
    TablePrinter mae({"Method", "B_set", "I_set1", "I_set2", "I_set3", "I_set4"});
    TablePrinter rmse({"Method", "B_set", "I_set1", "I_set2", "I_set3", "I_set4"});
    for (const std::string& model_name : models) {
      const auto results = bench::AverageOverSeeds(
          seeds, scale.seed, [&](uint64_t seed) {
            bench::BenchScale run_scale = scale;
            run_scale.seed = seed;
            const bench::BenchPipeline p = bench::BuildPipeline(preset, run_scale);
            core::ProtocolOptions options;
            options.epochs_per_stage = run_scale.epochs;
            if (model_name == "URCL") {
              core::UrclTrainer model(bench::MakeUrclConfig(p, run_scale),
                                      p.generator->network());
              return core::RunContinualProtocol(model, *p.stream, p.normalizer,
                                                p.target_channel, options);
            }
            auto model = baselines::MakeBaseline(
                model_name, bench::MakeZooOptions(p, run_scale), p.generator->network());
            return core::RunContinualProtocol(*model, *p.stream, p.normalizer,
                                              p.target_channel, options);
          });
      std::vector<std::string> mae_row = {model_name};
      std::vector<std::string> rmse_row = {model_name};
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
