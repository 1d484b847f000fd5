// Extension: continual-learning transfer analysis beyond the paper's tables.
// Prints the full stage-accuracy matrix A[k][j] = MAE on stage j's test after
// training through stage k, plus the standard CL summary metrics (average
// accuracy and backward transfer / forgetting), for three strategies:
//   FinetuneST (no mitigation), EWC (regularization-based, Sec. II-B family),
//   URCL (replay-based, the paper's method).
// Each strategy runs through core::RunContinualProtocol, whose
// obs::LearningTelemetry records the matrix and the forgetting.
// Expected shape: FinetuneST forgets (upper-right of the matrix degrades as
// you go down a column), EWC forgets less but adapts less, URCL balances.
#include "baselines/ewc.h"
#include "bench/bench_common.h"
#include "common/table_printer.h"

using namespace urcl;

namespace {

// Runs `model` through the continual protocol and prints the telemetry's
// matrix, its final-row mean and its mean forgetting (the MAE increase on
// old stages, R[K][j] - R[j][j] averaged over j < K).
void PrintTransfer(const std::string& name, core::StPredictor& model,
                   const bench::BenchPipeline& p, int64_t epochs) {
  obs::LearningTelemetry learning;
  core::ProtocolOptions options;
  options.epochs_per_stage = epochs;
  options.learning = &learning;
  core::RunContinualProtocol(model, *p.stream, p.normalizer, p.target_channel, options);

  const int64_t stages = p.stream->NumStages();
  std::printf("%s — MAE on stage j's test after training stage k:\n", name.c_str());
  std::vector<std::string> header = {"after \\ on"};
  for (int64_t j = 0; j < stages; ++j) header.push_back(p.stream->Stage(j).name);
  TablePrinter table(header);
  for (int64_t k = 0; k < stages; ++k) {
    std::vector<std::string> row = {p.stream->Stage(k).name};
    for (int64_t j = 0; j <= k; ++j) row.push_back(TablePrinter::Num(learning.At(k, j)));
    table.AddRow(row);
  }
  table.Print();

  double avg = 0.0;
  for (int64_t j = 0; j < stages; ++j) avg += learning.Latest(j);
  avg /= static_cast<double>(stages);
  std::printf("  final average MAE = %.2f, forgetting (MAE increase on old stages) = %+.2f\n\n",
              avg, learning.MeanForgetting());
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bench::BenchScale scale = bench::ResolveScale(flags);
  flags.ExitOnUnreadFlags();
  bench::PrintHeader("Extension: stage-transfer matrix (FinetuneST vs EWC vs URCL)", scale);

  const bench::BenchPipeline p = bench::BuildPipeline(data::MetrLaPreset(), scale);

  {
    core::UrclConfig config = bench::MakeUrclConfig(p, scale);
    config.enable_replay = false;
    config.enable_ssl = false;
    core::UrclTrainer model(config, p.generator->network());
    PrintTransfer("FinetuneST", model, p, scale.epochs);
  }
  {
    const baselines::ZooOptions zoo = bench::MakeZooOptions(p, scale);
    Rng rng(zoo.deep.seed);
    baselines::Ewc model(core::MakeBackbone(core::BackboneType::kGraphWaveNet, zoo.encoder, rng),
                         zoo.deep, p.generator->network(), rng);
    PrintTransfer("EWC", model, p, scale.epochs);
  }
  {
    core::UrclTrainer model(bench::MakeUrclConfig(p, scale), p.generator->network());
    PrintTransfer("URCL", model, p, scale.epochs);
  }
  return 0;
}
