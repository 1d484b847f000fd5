// Extension ablations beyond the paper's figures (design-choice sweeps
// called out in DESIGN.md): replay-buffer capacity, STMixup alpha, the
// buffer eviction policy (FIFO vs reservoir), and the number of replay
// samples |S|, all on a METR-LA-like stream. Reported value: MAE averaged
// over the incremental stages (pooled seen-so-far protocol), where the
// continual-learning machinery matters.
#include "bench/bench_common.h"
#include "common/table_printer.h"

using namespace urcl;

namespace {

double IncrementalAverageMae(const std::vector<core::StageResult>& results) {
  double total = 0.0;
  for (size_t i = 1; i < results.size(); ++i) total += results[i].metrics.mae;
  return total / static_cast<double>(results.size() - 1);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bench::BenchScale scale = bench::ResolveScale(flags);
  flags.ExitOnUnreadFlags();
  bench::PrintHeader("Extension: buffer / mixup / policy / |S| sweeps", scale);

  const bench::BenchPipeline p = bench::BuildPipeline(data::MetrLaPreset(), scale);
  auto run = [&](const core::UrclConfig& config) {
    core::UrclTrainer model(config, p.generator->network());
    core::ProtocolOptions options;
    options.epochs_per_stage = scale.epochs;
    return IncrementalAverageMae(core::RunContinualProtocol(
        model, *p.stream, p.normalizer, p.target_channel, options));
  };

  {
    TablePrinter table({"Buffer capacity", "Incremental MAE"});
    for (const int64_t capacity : {32, 64, 128, 256, 512}) {
      core::UrclConfig config = bench::MakeUrclConfig(p, scale);
      config.buffer_capacity = capacity;
      table.AddRow({std::to_string(capacity), TablePrinter::Num(run(config))});
    }
    std::printf("Replay buffer capacity sweep (paper uses 256):\n");
    table.Print();
    std::printf("\n");
  }

  {
    TablePrinter table({"Mixup alpha", "Incremental MAE"});
    for (const float alpha : {0.1f, 0.2f, 0.5f, 1.0f, 2.0f}) {
      core::UrclConfig config = bench::MakeUrclConfig(p, scale);
      config.mixup_alpha = alpha;
      table.AddRow({TablePrinter::Num(alpha, 1), TablePrinter::Num(run(config))});
    }
    std::printf("STMixup Beta(alpha, alpha) sweep:\n");
    table.Print();
    std::printf("\n");
  }

  {
    TablePrinter table({"Buffer policy", "Incremental MAE"});
    for (const auto& [label, policy] :
         std::vector<std::pair<std::string, replay::BufferPolicy>>{
             {"FIFO (paper's queue)", replay::BufferPolicy::kFifo},
             {"Reservoir (default)", replay::BufferPolicy::kReservoir}}) {
      core::UrclConfig config = bench::MakeUrclConfig(p, scale);
      config.buffer_policy = policy;
      table.AddRow({label, TablePrinter::Num(run(config))});
    }
    std::printf("Buffer eviction policy (see DESIGN.md on why reservoir):\n");
    table.Print();
    std::printf("\n");
  }

  {
    TablePrinter table({"Replay samples |S|", "Incremental MAE"});
    for (const int64_t count : {1, 2, 4, 8}) {
      core::UrclConfig config = bench::MakeUrclConfig(p, scale);
      config.replay_sample_count = count;
      table.AddRow({std::to_string(count), TablePrinter::Num(run(config))});
    }
    std::printf("Replay sample count |S| sweep:\n");
    table.Print();
  }
  return 0;
}
