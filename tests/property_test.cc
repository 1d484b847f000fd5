// Property-based tests: parameterized sweeps asserting invariants over many
// randomized configurations (TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <gtest/gtest.h>

#include <tuple>

#include "augment/augmentation.h"
#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "core/stmixup.h"
#include "data/normalizer.h"
#include "graph/generator.h"
#include "graph/transition.h"
#include "nn/loss.h"
#include "replay/samplers.h"
#include "tensor/tensor_ops.h"

namespace urcl {
namespace {

namespace ag = ::urcl::autograd;
namespace top = ::urcl::ops;

// ---------------------------------------------------------------------------
// Broadcasting invariants across shape pairs.
class BroadcastProperty
    : public ::testing::TestWithParam<std::tuple<std::vector<int64_t>, std::vector<int64_t>>> {};

TEST_P(BroadcastProperty, AddCommutes) {
  const auto [da, db] = GetParam();
  Rng rng(1);
  Tensor a = Tensor::RandomNormal(Shape(da), rng);
  Tensor b = Tensor::RandomNormal(Shape(db), rng);
  EXPECT_TRUE(top::AllClose(top::Add(a, b), top::Add(b, a)));
}

TEST_P(BroadcastProperty, MulMatchesExplicitBroadcast) {
  const auto [da, db] = GetParam();
  Rng rng(2);
  Tensor a = Tensor::RandomNormal(Shape(da), rng);
  Tensor b = Tensor::RandomNormal(Shape(db), rng);
  const Shape out = BroadcastShapes(a.shape(), b.shape());
  const Tensor expected = top::Mul(top::BroadcastTo(a, out), top::BroadcastTo(b, out));
  EXPECT_TRUE(top::AllClose(top::Mul(a, b), expected));
}

TEST_P(BroadcastProperty, GradientOfSumAddIsCountOfUses) {
  const auto [da, db] = GetParam();
  Rng rng(3);
  ag::Variable a(Tensor::RandomNormal(Shape(da), rng), true);
  ag::Variable b(Tensor::RandomNormal(Shape(db), rng), true);
  ag::Sum(ag::Add(a, b)).Backward();
  // Each element of a is used (numel(out)/numel(a)) times.
  const Shape out = BroadcastShapes(Shape(da), Shape(db));
  const float uses_a =
      static_cast<float>(out.NumElements()) / static_cast<float>(Shape(da).NumElements());
  EXPECT_TRUE(top::AllClose(a.grad(), Tensor::Full(Shape(da), uses_a)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastProperty,
    ::testing::Values(
        std::make_tuple(std::vector<int64_t>{3, 4}, std::vector<int64_t>{3, 4}),
        std::make_tuple(std::vector<int64_t>{3, 4}, std::vector<int64_t>{4}),
        std::make_tuple(std::vector<int64_t>{3, 1}, std::vector<int64_t>{1, 4}),
        std::make_tuple(std::vector<int64_t>{2, 3, 4}, std::vector<int64_t>{3, 4}),
        std::make_tuple(std::vector<int64_t>{2, 1, 4}, std::vector<int64_t>{3, 1}),
        std::make_tuple(std::vector<int64_t>{5}, std::vector<int64_t>{})));

// ---------------------------------------------------------------------------
// MatMul associativity/identity across sizes.
class MatMulProperty : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulProperty, MatchesNaiveTripleLoop) {
  const auto [m, k, n] = GetParam();
  Rng rng(4);
  Tensor a = Tensor::RandomNormal(Shape{m, k}, rng);
  Tensor b = Tensor::RandomNormal(Shape{k, n}, rng);
  const Tensor fast = top::MatMul(a, b);
  Tensor slow(Shape{m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += a.At({i, kk}) * b.At({kk, j});
      slow.Set({i, j}, acc);
    }
  }
  EXPECT_TRUE(top::AllClose(fast, slow, 1e-4f, 1e-4f));
}

TEST_P(MatMulProperty, TransposeIdentity) {
  // (A B)^T == B^T A^T
  const auto [m, k, n] = GetParam();
  Rng rng(5);
  Tensor a = Tensor::RandomNormal(Shape{m, k}, rng);
  Tensor b = Tensor::RandomNormal(Shape{k, n}, rng);
  const Tensor lhs = top::TransposeLast2(top::MatMul(a, b));
  const Tensor rhs = top::MatMul(top::TransposeLast2(b), top::TransposeLast2(a));
  EXPECT_TRUE(top::AllClose(lhs, rhs, 1e-4f, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatMulProperty,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(2, 3, 4),
                                           std::make_tuple(5, 1, 3),
                                           std::make_tuple(7, 8, 2),
                                           std::make_tuple(4, 16, 4)));

// ---------------------------------------------------------------------------
// Transition matrices stay row-stochastic for random graphs.
class TransitionProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TransitionProperty, SupportsAreRowStochastic) {
  Rng rng(GetParam());
  graph::SensorNetwork g = graph::RandomGeometricGraph(12, 0.3f, rng);
  for (const Tensor& p : graph::BuildSupports(g)) {
    const Tensor row_sums = top::Sum(p, {1});
    EXPECT_TRUE(top::AllClose(row_sums, Tensor::Ones(Shape{12}), 1e-4f));
    EXPECT_GE(top::Min(p).Item(), 0.0f);
  }
}

TEST_P(TransitionProperty, LaplacianEigenvalueBounds) {
  // x^T L x >= 0 for random x (positive semidefinite check by sampling).
  Rng rng(GetParam() + 100);
  graph::SensorNetwork g = graph::RandomGeometricGraph(10, 0.3f, rng);
  const Tensor l = graph::NormalizedLaplacian(g.AdjacencyMatrix());
  for (int trial = 0; trial < 5; ++trial) {
    Tensor x = Tensor::RandomNormal(Shape{10, 1}, rng);
    const float quad = top::MatMul(top::TransposeLast2(x), top::MatMul(l, x)).Item();
    EXPECT_GE(quad, -1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransitionProperty, ::testing::Range<uint64_t>(0, 6));

// ---------------------------------------------------------------------------
// Augmentations keep shapes and never produce non-finite values, across all
// five methods and several seeds.
class AugmentationProperty
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(AugmentationProperty, ShapePreservingAndFinite) {
  const auto [index, seed] = GetParam();
  Rng rng(seed);
  graph::SensorNetwork g = graph::RandomGeometricGraph(10, 0.35f, rng);
  Tensor obs = Tensor::RandomUniform(Shape{3, 8, 10, 2}, rng, 0.0f, 1.0f);
  const auto augmentations = augment::MakeDefaultAugmentations();
  const augment::AugmentedView view =
      augmentations[static_cast<size_t>(index)]->Apply(obs, g, rng);
  EXPECT_EQ(view.observations.shape(), obs.shape());
  EXPECT_EQ(view.adjacency.shape(), Shape({10, 10}));
  EXPECT_TRUE(top::AllFinite(view.observations));
  EXPECT_TRUE(top::AllFinite(view.adjacency));
}

TEST_P(AugmentationProperty, AugmentedAdjacencyStillNormalizes) {
  // Whatever the augmentation does, BuildSupportsDense must produce valid
  // row-stochastic transitions (the encoder depends on this).
  const auto [index, seed] = GetParam();
  Rng rng(seed + 31);
  graph::SensorNetwork g = graph::RandomGeometricGraph(10, 0.35f, rng);
  Tensor obs = Tensor::RandomUniform(Shape{2, 8, 10, 2}, rng, 0.0f, 1.0f);
  const auto augmentations = augment::MakeDefaultAugmentations();
  const augment::AugmentedView view =
      augmentations[static_cast<size_t>(index)]->Apply(obs, g, rng);
  for (const Tensor& p : graph::BuildSupportsDense(view.adjacency, false)) {
    EXPECT_TRUE(top::AllClose(top::Sum(p, {1}), Tensor::Ones(Shape{10}), 1e-4f));
  }
}

INSTANTIATE_TEST_SUITE_P(MethodsAndSeeds, AugmentationProperty,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Values<uint64_t>(1, 2, 3)));

// ---------------------------------------------------------------------------
// STMixup invariants over alpha.
class MixupProperty : public ::testing::TestWithParam<float> {};

TEST_P(MixupProperty, OutputIsConvexCombination) {
  const float alpha = GetParam();
  Rng rng(9);
  Tensor cx = Tensor::RandomUniform(Shape{4, 6, 5, 2}, rng, 0.0f, 1.0f);
  Tensor cy = Tensor::RandomUniform(Shape{4, 1, 5, 1}, rng, 0.0f, 1.0f);
  Tensor rx = Tensor::RandomUniform(Shape{2, 6, 5, 2}, rng, 0.0f, 1.0f);
  Tensor ry = Tensor::RandomUniform(Shape{2, 1, 5, 1}, rng, 0.0f, 1.0f);
  for (int trial = 0; trial < 5; ++trial) {
    const core::MixupResult mix = core::StMixup(cx, cy, rx, ry, alpha, rng);
    EXPECT_GE(mix.lambda, 0.0f);
    EXPECT_LE(mix.lambda, 1.0f);
    // Convexity: outputs stay within [0, 1] since inputs do.
    EXPECT_GE(top::Min(mix.inputs).Item(), 0.0f);
    EXPECT_LE(top::Max(mix.inputs).Item(), 1.0f);
    EXPECT_GE(top::Min(mix.targets).Item(), 0.0f);
    EXPECT_LE(top::Max(mix.targets).Item(), 1.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, MixupProperty, ::testing::Values(0.1f, 0.5f, 1.0f, 2.0f));

// ---------------------------------------------------------------------------
// Normalizer round trips across random value ranges.
class NormalizerProperty : public ::testing::TestWithParam<std::tuple<float, float>> {};

TEST_P(NormalizerProperty, RoundTripAndRange) {
  const auto [lo, span] = GetParam();
  Rng rng(10);
  Tensor series = Tensor::RandomUniform(Shape{30, 4, 2}, rng, lo, lo + span);
  const data::MinMaxNormalizer norm = data::MinMaxNormalizer::Fit(series);
  const Tensor t = norm.Transform(series);
  EXPECT_GE(top::Min(t).Item(), -1e-5f);
  EXPECT_LE(top::Max(t).Item(), 1.0f + 1e-5f);
  for (int64_t c = 0; c < 2; ++c) {
    EXPECT_TRUE(top::AllClose(norm.InverseTransformChannel(top::Slice(t, {0, 0, c}, {30, 4, 1}), c),
                              top::Slice(series, {0, 0, c}, {30, 4, 1}),
                              2e-3f * (std::fabs(lo) + span)))
        << "channel " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Ranges, NormalizerProperty,
                         ::testing::Values(std::make_tuple(0.0f, 1.0f),
                                           std::make_tuple(-50.0f, 100.0f),
                                           std::make_tuple(1000.0f, 5.0f),
                                           std::make_tuple(-0.01f, 0.02f)));

// ---------------------------------------------------------------------------
// GraphCL loss: gradcheck across batch sizes and temperatures.
class GraphClProperty : public ::testing::TestWithParam<std::tuple<int, float>> {};

TEST_P(GraphClProperty, GradCheckPasses) {
  const auto [batch, temperature] = GetParam();
  Rng rng(11);
  std::vector<ag::Variable> inputs;
  for (int i = 0; i < 4; ++i) {
    // The loss stop-gradients z1/z2 (inputs 2 and 3): only p1/p2 are
    // differentiable from the checker's perspective.
    inputs.emplace_back(Tensor::RandomUniform(Shape{batch, 5}, rng, -1.0f, 1.0f), i < 2);
  }
  const float t = temperature;
  const auto result = ag::CheckGradients(
      [t](const std::vector<ag::Variable>& in) {
        return nn::GraphClLoss(in[0], in[1], in[2], in[3], t);
      },
      inputs, 1e-2f, 4e-2f);
  EXPECT_TRUE(result.passed) << "batch=" << batch << " T=" << temperature
                             << " max_rel=" << result.max_rel_error;
}

INSTANTIATE_TEST_SUITE_P(BatchTemp, GraphClProperty,
                         ::testing::Combine(::testing::Values(2, 3, 5),
                                            ::testing::Values(0.3f, 0.5f, 1.0f)));

// ---------------------------------------------------------------------------
// Softmax invariants across axes.
class SoftmaxProperty : public ::testing::TestWithParam<int64_t> {};

TEST_P(SoftmaxProperty, SumsToOneAndShiftInvariant) {
  const int64_t axis = GetParam();
  Rng rng(12);
  Tensor x = Tensor::RandomNormal(Shape{3, 4, 5}, rng, 0.0f, 2.0f);
  const Tensor s = top::Softmax(x, axis);
  const Tensor sums = top::Sum(s, {axis});
  EXPECT_TRUE(top::AllClose(sums, Tensor::Ones(sums.shape()), 1e-5f));
  // Shift invariance.
  const Tensor shifted = top::Softmax(top::AddScalar(x, 5.0f), axis);
  EXPECT_TRUE(top::AllClose(s, shifted, 1e-5f));
}

INSTANTIATE_TEST_SUITE_P(Axes, SoftmaxProperty, ::testing::Values(0, 1, 2, -1));

}  // namespace
}  // namespace urcl
