// Reproduces Table I: statistics of the four datasets, both the paper's
// real-archive numbers and the synthetic instances this repo substitutes.
#include "bench/bench_common.h"
#include "common/table_printer.h"

using namespace urcl;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bench::BenchScale scale = bench::ResolveScale(flags);
  flags.ExitOnUnreadFlags();
  bench::PrintHeader("Table I: Statistics of Datasets", scale);

  TablePrinter paper({"Dataset", "Area", "Paper nodes", "Interval", "Channels",
                      "Input steps", "Output steps", "Target"});
  TablePrinter synthetic({"Dataset", "Synthetic nodes", "Days", "Steps", "Graph edges"});
  for (const data::DatasetPreset& preset : data::AllPresets()) {
    paper.AddRow({preset.name, preset.area, std::to_string(preset.paper_num_nodes),
                  std::to_string(preset.sampling_interval_min) + " mins",
                  std::to_string(preset.channels), std::to_string(preset.input_steps),
                  std::to_string(preset.output_steps),
                  preset.speed_target ? "speed" : "flow"});
    bench::BenchPipeline p = bench::BuildPipeline(preset, scale);
    synthetic.AddRow({preset.name, std::to_string(p.generator->network().num_nodes()),
                      std::to_string(bench::DaysFor(preset, scale)),
                      std::to_string(p.dataset->num_steps()),
                      std::to_string(p.generator->network().num_edges() / 2)});
  }
  std::printf("Paper dataset statistics (Table I):\n");
  paper.Print();
  std::printf("\nSynthetic substitutes generated at this scale:\n");
  synthetic.Print();
  return 0;
}
