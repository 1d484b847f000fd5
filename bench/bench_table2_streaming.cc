// Reproduces Table II: performance of training on streaming data.
// Three strategies on PEMS-BAY-like and PEMS08-like streams:
//   OneFitAll  — GraphWaveNet trained on the base set only
//   FinetuneST — GraphWaveNet finetuned on each incremental set
//   URCL       — the full replay-based framework
// Metrics: MAE and RMSE on the pooled test sets of all stages seen so far.
// Expected shape (paper): OneFitAll/FinetuneST match URCL on B_set and
// degrade on the incremental sets; URCL stays flat.
#include "bench/bench_common.h"
#include "common/table_printer.h"

using namespace urcl;

namespace {

std::vector<core::StageResult> RunStrategy(const std::string& strategy,
                                           const data::DatasetPreset& preset,
                                           const bench::BenchScale& scale, int64_t seeds) {
  return bench::AverageOverSeeds(seeds, scale.seed, [&](uint64_t seed) {
    bench::BenchScale run_scale = scale;
    run_scale.seed = seed;
    const bench::BenchPipeline p = bench::BuildPipeline(preset, run_scale);
    core::UrclConfig config = bench::MakeUrclConfig(p, run_scale);
    core::ProtocolOptions options;
    options.epochs_per_stage = run_scale.epochs;
    if (strategy == "OneFitAll") {
      config.enable_replay = false;
      config.enable_ssl = false;
      options.strategy = core::TrainingStrategy::kOneFitAll;
    } else if (strategy == "FinetuneST") {
      config.enable_replay = false;
      config.enable_ssl = false;
    }
    core::UrclTrainer model(config, p.generator->network());
    return core::RunContinualProtocol(model, *p.stream, p.normalizer, p.target_channel,
                                      options);
  });
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bench::BenchScale scale = bench::ResolveScale(flags);
  const int64_t seeds = flags.GetInt("seeds", 2);
  flags.ExitOnUnreadFlags();
  bench::PrintHeader("Table II: Performance of Training on Streaming Data", scale);

  const std::vector<data::DatasetPreset> presets = {data::PemsBayPreset(),
                                                    data::Pems08Preset()};
  const std::vector<std::string> strategies = {"OneFitAll", "FinetuneST", "URCL"};

  for (const data::DatasetPreset& preset : presets) {
    std::printf("Dataset: %s-like (%s prediction)\n", preset.name.c_str(),
                preset.speed_target ? "speed" : "flow");
    TablePrinter mae({"Method", "B_set", "I_set1", "I_set2", "I_set3", "I_set4"});
    TablePrinter rmse({"Method", "B_set", "I_set1", "I_set2", "I_set3", "I_set4"});
    for (const std::string& strategy : strategies) {
      const auto results = RunStrategy(strategy, preset, scale, seeds);
      std::vector<std::string> mae_row = {strategy};
      std::vector<std::string> rmse_row = {strategy};
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
