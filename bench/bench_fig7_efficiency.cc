// Reproduces Figure 7: training time per epoch and inference time per
// observation on a PEMS04-like stream, for all deep models and URCL.
// Expected shape (paper): DCRNN slowest to train and infer (RNN unrolling);
// URCL trains faster than DCRNN and infers comparably to the CNN models.
#include "bench/bench_common.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"

using namespace urcl;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bench::BenchScale scale = bench::ResolveScale(flags);
  flags.ExitOnUnreadFlags();
  bench::PrintHeader("Figure 7: Training and Inference Time on PEMS04", scale);

  const bench::BenchPipeline p = bench::BuildPipeline(data::Pems04Preset(), scale);
  const std::vector<std::string> models = {"DCRNN", "STGCN", "MTGNN",
                                           "AGCRN", "STGODE", "GeoMAN", "URCL"};

  TablePrinter table({"Model", "train s/epoch (base)", "train s/epoch (incr avg)",
                      "infer ms/obs (base)", "infer ms/obs (incr avg)"});
  for (const std::string& name : models) {
    std::unique_ptr<core::StPredictor> owned;
    core::StPredictor* model = nullptr;
    std::unique_ptr<core::UrclTrainer> urcl;
    if (name == "URCL") {
      urcl = std::make_unique<core::UrclTrainer>(bench::MakeUrclConfig(p, scale),
                                                 p.generator->network());
      model = urcl.get();
    } else {
      owned = baselines::MakeBaseline(name, bench::MakeZooOptions(p, scale),
                                      p.generator->network());
      model = owned.get();
    }
    core::ProtocolOptions options;
    options.epochs_per_stage = scale.epochs;
    const auto results = core::RunContinualProtocol(*model, *p.stream, p.normalizer,
                                                    p.target_channel, options);
    double incr_train = 0.0, incr_infer = 0.0;
    for (size_t i = 1; i < results.size(); ++i) {
      incr_train += results[i].train_seconds_per_epoch;
      incr_infer += results[i].infer_seconds_per_observation;
    }
    const double denom = static_cast<double>(results.size() - 1);
    table.AddRow({name, TablePrinter::Num(results[0].train_seconds_per_epoch, 3),
                  TablePrinter::Num(incr_train / denom, 3),
                  TablePrinter::Num(1e3 * results[0].infer_seconds_per_observation, 3),
                  TablePrinter::Num(1e3 * incr_infer / denom, 3)});
  }
  table.Print();
  std::printf("\nNote: inference timing covers the pooled seen-so-far evaluation\n"
              "protocol; per-observation cost is amortized over all test sets.\n");
  return 0;
}
