// Tour of the five spatio-temporal augmentations (Sec. IV-C1): applies each
// one to the same sample and prints what changed — nodes masked, edges
// dropped/added, time distortion — plus the effect on the GraphCL views.
//
//   ./augmentation_gallery [--nodes 10] [--seed 7]
#include <cmath>
#include <cstdio>

#include "augment/augmentation.h"
#include "common/flags.h"
#include "runtime/runtime_flags.h"
#include "common/table_printer.h"
#include "data/synthetic.h"
#include "graph/generator.h"
#include "tensor/tensor_ops.h"

using namespace urcl;

namespace {

struct ViewDiff {
  int64_t nodes_masked = 0;
  int64_t edges_removed = 0;
  int64_t edges_added = 0;
  float observation_l2_change = 0.0f;
};

ViewDiff Diff(const Tensor& observations, const Tensor& adjacency,
              const augment::AugmentedView& view) {
  ViewDiff diff;
  const int64_t n = adjacency.dim(0);
  for (int64_t node = 0; node < n; ++node) {
    bool all_zero = true;
    for (int64_t b = 0; b < view.observations.dim(0) && all_zero; ++b) {
      for (int64_t t = 0; t < view.observations.dim(1) && all_zero; ++t) {
        for (int64_t c = 0; c < view.observations.dim(3) && all_zero; ++c) {
          all_zero = view.observations.At({b, t, node, c}) == 0.0f;
        }
      }
    }
    diff.nodes_masked += all_zero ? 1 : 0;
  }
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const bool before = adjacency.At({i, j}) != 0.0f;
      const bool after = view.adjacency.At({i, j}) != 0.0f;
      diff.edges_removed += before && !after;
      diff.edges_added += !before && after;
    }
  }
  const Tensor delta = ops::Sub(view.observations, observations);
  diff.observation_l2_change =
      std::sqrt(ops::Sum(ops::Square(delta)).Item() /
                static_cast<float>(delta.NumElements()));
  return diff;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  runtime::ApplyRuntimeFlags(flags);
  const int64_t nodes = flags.GetInt("nodes", 10);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  flags.ExitOnUnreadFlags();
  Rng rng(seed);

  data::TrafficConfig config;
  config.num_nodes = nodes;
  config.num_days = 2;
  config.steps_per_day = 96;
  config.seed = seed;
  data::SyntheticTraffic generator(config);
  const Tensor series = generator.GenerateSeries();
  // One batch of 4 windows of 12 steps.
  std::vector<Tensor> windows;
  for (int64_t b = 0; b < 4; ++b) {
    windows.push_back(ops::Slice(series, {b * 24, 0, 0}, {12, nodes, config.channels}));
  }
  const Tensor observations = ops::Stack(windows, 0);
  const Tensor adjacency = generator.network().AdjacencyMatrix();

  std::printf("Sample: [%lld windows x 12 steps x %lld sensors x %lld channels], "
              "%lld directed edges\n\n",
              4LL, static_cast<long long>(nodes), static_cast<long long>(config.channels),
              static_cast<long long>(generator.network().num_edges()));

  TablePrinter table(
      {"Augmentation", "Nodes masked", "Edges removed", "Edges added", "Obs RMS change"});
  for (const auto& augmentation : augment::MakeDefaultAugmentations()) {
    const augment::AugmentedView view =
        augmentation->Apply(observations, generator.network(), rng);
    const ViewDiff diff = Diff(observations, adjacency, view);
    table.AddRow({augmentation->name(), std::to_string(diff.nodes_masked),
                  std::to_string(diff.edges_removed), std::to_string(diff.edges_added),
                  TablePrinter::Num(diff.observation_l2_change, 4)});
  }
  table.Print();

  std::printf("\nDuring training, two distinct augmentations are drawn per step and the\n"
              "STSimSiam network maximizes mutual information between the two views:\n");
  auto augmentations = augment::MakeDefaultAugmentations();
  for (int trial = 0; trial < 5; ++trial) {
    const auto [a, b] = augment::PickTwoDistinct(augmentations, rng);
    std::printf("  step %d: views = (%s, %s)\n", trial, a->name().c_str(),
                b->name().c_str());
  }
  return 0;
}
