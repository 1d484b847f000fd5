// Structural property tests: graph-convolution permutation equivariance
// (relabeling sensors permutes outputs identically), temporal-convolution
// shift behaviour against a naive reference, and the FC-LSTM baseline.
#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "baselines/fclstm.h"
#include "baselines/zoo.h"
#include "core/stencoder.h"
#include "data/synthetic.h"
#include "graph/generator.h"
#include "graph/transition.h"
#include "nn/gcn.h"
#include "tensor/tensor_ops.h"

#include "predict_util.h"

namespace urcl {
namespace {

namespace ag = ::urcl::autograd;
namespace top = ::urcl::ops;
using autograd::Variable;

// Applies a node permutation to a [B, C, N, T] tensor.
Tensor PermuteNodes(const Tensor& x, const std::vector<int64_t>& perm) {
  Tensor out(x.shape());
  for (int64_t b = 0; b < x.dim(0); ++b) {
    for (int64_t c = 0; c < x.dim(1); ++c) {
      for (int64_t n = 0; n < x.dim(2); ++n) {
        for (int64_t t = 0; t < x.dim(3); ++t) {
          out.Set({b, c, perm[static_cast<size_t>(n)], t}, x.At({b, c, n, t}));
        }
      }
    }
  }
  return out;
}

// Applies a node permutation to an [N, N] adjacency.
Tensor PermuteAdjacency(const Tensor& a, const std::vector<int64_t>& perm) {
  Tensor out(a.shape());
  for (int64_t i = 0; i < a.dim(0); ++i) {
    for (int64_t j = 0; j < a.dim(1); ++j) {
      out.Set({perm[static_cast<size_t>(i)], perm[static_cast<size_t>(j)]}, a.At({i, j}));
    }
  }
  return out;
}

class EquivarianceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EquivarianceTest, DiffusionGcnIsPermutationEquivariant) {
  Rng rng(GetParam());
  const int64_t n = 8;
  graph::SensorNetwork g = graph::RandomGeometricGraph(n, 0.4f, rng);
  // A GCN with only static supports (adaptive embeddings are node-identity
  // bound and intentionally break equivariance).
  nn::DiffusionGcn gcn(3, 3, 1, /*use_adaptive=*/false, 2, rng);
  const Tensor adjacency = g.AdjacencyMatrix();
  Tensor x = Tensor::RandomNormal(Shape{2, 3, n, 4}, rng);
  const std::vector<int64_t> perm = rng.Permutation(n);

  const Tensor support = graph::BuildSupportsDense(adjacency, false)[0];
  const Tensor support_perm =
      graph::BuildSupportsDense(PermuteAdjacency(adjacency, perm), false)[0];

  const Tensor y = gcn.Forward(Variable(x, false), {support}, Variable()).value();
  const Tensor y_perm =
      gcn.Forward(Variable(PermuteNodes(x, perm), false), {support_perm}, Variable())
          .value();
  EXPECT_TRUE(top::AllClose(PermuteNodes(y, perm), y_perm, 1e-4f, 1e-4f));
}

TEST_P(EquivarianceTest, GatedTcnIsNodeIndependent) {
  // The temporal convolution must treat nodes independently: permuting node
  // order commutes with the layer even without touching any graph.
  Rng rng(GetParam() + 50);
  nn::GatedTcn tcn(2, 3, 2, 2, rng);
  const int64_t n = 6;
  Tensor x = Tensor::RandomNormal(Shape{2, 2, n, 9}, rng);
  const std::vector<int64_t> perm = rng.Permutation(n);
  const Tensor y = tcn.Forward(Variable(x, false)).value();
  const Tensor y_perm = tcn.Forward(Variable(PermuteNodes(x, perm), false)).value();
  EXPECT_TRUE(top::AllClose(PermuteNodes(y, perm), y_perm, 1e-5f));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivarianceTest, ::testing::Range<uint64_t>(0, 4));

TEST(TemporalConvReferenceTest, MatchesNaiveLoop) {
  Rng rng(9);
  const Tensor in = Tensor::RandomNormal(Shape{2, 3, 2, 10}, rng);
  const Tensor w = Tensor::RandomNormal(Shape{4, 3, 1, 2}, rng);
  const int64_t dilation = 3;
  const Tensor fast =
      ag::TemporalConv2d(Variable(in, false), Variable(w, false), dilation).value();
  // Naive reference.
  const int64_t t_out = 10 - dilation * (2 - 1);
  Tensor slow(Shape{2, 4, 2, t_out});
  for (int64_t b = 0; b < 2; ++b) {
    for (int64_t co = 0; co < 4; ++co) {
      for (int64_t node = 0; node < 2; ++node) {
        for (int64_t t = 0; t < t_out; ++t) {
          float acc = 0.0f;
          for (int64_t ci = 0; ci < 3; ++ci) {
            for (int64_t k = 0; k < 2; ++k) {
              acc += in.At({b, ci, node, t + dilation * k}) * w.At({co, ci, 0, k});
            }
          }
          slow.Set({b, co, node, t}, acc);
        }
      }
    }
  }
  EXPECT_TRUE(top::AllClose(fast, slow, 1e-4f, 1e-4f));
}

TEST(FcLstmTest, ShapesAndGradients) {
  Rng rng(11);
  core::BackboneConfig config;
  config.num_nodes = 5;
  config.in_channels = 2;
  config.input_steps = 12;
  config.hidden_channels = 4;
  config.latent_channels = 8;
  baselines::FcLstmEncoder encoder(config, rng);
  Variable x(Tensor::RandomUniform(Shape{3, 12, 5, 2}, rng), false);
  Variable latent = encoder.Encode(x, Tensor::Zeros(Shape{5, 5}));
  EXPECT_EQ(latent.shape(), Shape({3, 8, 5, 1}));
  ag::Mean(ag::Square(latent)).Backward();
  for (const Variable& p : encoder.Parameters()) {
    EXPECT_EQ(p.grad().shape(), p.value().shape());
  }
}

TEST(FcLstmTest, GraphBlind) {
  // Different adjacency matrices must not change the output.
  Rng rng(12);
  core::BackboneConfig config;
  config.num_nodes = 4;
  config.in_channels = 1;
  config.input_steps = 8;
  config.hidden_channels = 3;
  config.latent_channels = 6;
  baselines::FcLstmEncoder encoder(config, rng);
  Variable x(Tensor::RandomUniform(Shape{1, 8, 4, 1}, rng), false);
  const Tensor a = encoder.Encode(x, Tensor::Zeros(Shape{4, 4})).value();
  const Tensor b = encoder.Encode(x, Tensor::Ones(Shape{4, 4})).value();
  EXPECT_TRUE(top::AllClose(a, b));
}

TEST(FcLstmTest, InZooAndTrains) {
  data::TrafficConfig traffic;
  traffic.num_nodes = 5;
  traffic.num_days = 2;
  traffic.steps_per_day = 48;
  data::SyntheticTraffic generator(traffic);
  Tensor series = generator.GenerateSeries();
  const data::MinMaxNormalizer norm = data::MinMaxNormalizer::Fit(series);
  data::StDataset dataset(norm.Transform(series), data::WindowConfig{12, 1, 0});

  baselines::ZooOptions options;
  options.encoder.num_nodes = 5;
  options.encoder.in_channels = 2;
  options.encoder.input_steps = 12;
  options.encoder.hidden_channels = 4;
  options.encoder.latent_channels = 8;
  options.deep.decoder_hidden = 16;
  options.deep.max_batches_per_epoch = 4;
  auto model = baselines::MakeBaseline("FC-LSTM", options, generator.network());
  const std::vector<float> losses = model->TrainStage(dataset, 2);
  EXPECT_TRUE(std::isfinite(losses.back()));
  const auto [x, y] = dataset.MakeBatch({0, 1});
  EXPECT_EQ(FullForecast(*model, x).shape(), y.shape());
}

}  // namespace
}  // namespace urcl
