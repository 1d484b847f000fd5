// Reproduces Figure 8: training convergence of URCL on METR-LA-like and
// PEMS08-like streams. Prints the per-epoch training loss for each stage
// (the paper trains 100 epochs per set; scale with --epochs).
// Expected shape: the base set needs the most epochs; incremental sets
// converge faster (knowledge transfer), with minor mixup-induced wiggles.
#include <memory>

#include "bench/bench_common.h"
#include "common/csv_writer.h"
#include "common/table_printer.h"

using namespace urcl;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  bench::BenchScale scale = bench::ResolveScale(flags);
  // Convergence needs more epochs than the accuracy tables.
  if (!flags.Has("epochs")) scale.epochs = scale.name == "full" ? 30 : 10;
  // Optional plottable export: --csv <path> writes dataset,stage,epoch,loss.
  const std::string csv_path =
      flags.Has("csv") ? flags.GetString("csv", "fig8_convergence.csv") : "";
  flags.ExitOnUnreadFlags();
  bench::PrintHeader("Figure 8: Training Convergence of URCL", scale);

  std::unique_ptr<CsvWriter> csv;
  if (!csv_path.empty()) {
    csv = std::make_unique<CsvWriter>(
        csv_path, std::vector<std::string>{"dataset", "stage", "epoch", "loss"});
  }

  for (const data::DatasetPreset& preset :
       {data::MetrLaPreset(), data::Pems08Preset()}) {
    const bench::BenchPipeline p = bench::BuildPipeline(preset, scale);
    core::UrclConfig config = bench::MakeUrclConfig(p, scale);
    core::UrclTrainer model(config, p.generator->network());

    std::printf("Dataset: %s-like (loss = L_task + L_ssl per epoch)\n",
                preset.name.c_str());
    for (int64_t i = 0; i < p.stream->NumStages(); ++i) {
      const data::StreamStage& stage = p.stream->Stage(i);
      const std::vector<float> losses = model.TrainStage(stage.train, scale.epochs);
      std::printf("  %-7s:", stage.name.c_str());
      for (size_t e = 0; e < losses.size(); ++e) {
        std::printf(" %.4f", losses[e]);
        if (csv != nullptr) {
          csv->WriteRow({preset.name, stage.name, std::to_string(e),
                         std::to_string(losses[e])});
        }
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
  if (csv != nullptr) std::printf("Wrote CSV series to %s\n", csv->path().c_str());
  return 0;
}
