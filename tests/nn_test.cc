#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "nn/gcn.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/module.h"
#include "nn/tcn.h"
#include "tensor/tensor_ops.h"

namespace urcl {
namespace nn {
namespace {

namespace ag = ::urcl::autograd;
namespace top = ::urcl::ops;

TEST(InitTest, GlorotRange) {
  Rng rng(1);
  Tensor w = GlorotUniform(Shape{64, 64}, rng, 64, 64);
  const float limit = std::sqrt(6.0f / 128.0f);
  for (int64_t i = 0; i < w.NumElements(); ++i) {
    EXPECT_LE(std::fabs(w.FlatAt(i)), limit);
  }
}

TEST(LinearTest, ShapesAndBias) {
  Rng rng(2);
  Linear layer(3, 5, rng);
  Variable x(Tensor::Ones(Shape{4, 3}), false);
  Variable y = layer.Forward(x);
  EXPECT_EQ(y.shape(), Shape({4, 5}));
  EXPECT_EQ(layer.Parameters().size(), 2u);  // weight + bias
  Linear no_bias(3, 5, rng, /*bias=*/false);
  EXPECT_EQ(no_bias.Parameters().size(), 1u);
}

TEST(LinearTest, BatchedLeadingDims) {
  Rng rng(3);
  Linear layer(3, 2, rng);
  Variable x(Tensor::Ones(Shape{2, 7, 3}), false);
  EXPECT_EQ(layer.Forward(x).shape(), Shape({2, 7, 2}));
}

TEST(LinearTest, WrongInputDies) {
  Rng rng(4);
  Linear layer(3, 2, rng);
  Variable x(Tensor::Ones(Shape{4, 5}), false);
  EXPECT_DEATH(layer.Forward(x), "does not end in 3");
}

TEST(LinearTest, IsTrainable) {
  Rng rng(5);
  Linear layer(2, 1, rng);
  Variable x(Tensor::Ones(Shape{3, 2}), false);
  Variable loss = ag::Mean(ag::Square(layer.Forward(x)));
  loss.Backward();
  for (const Variable& p : layer.Parameters()) {
    EXPECT_EQ(p.grad().shape(), p.value().shape());
  }
}

TEST(ChannelLinearTest, MapsChannels) {
  Rng rng(6);
  ChannelLinear layer(3, 8, rng);
  Variable x(Tensor::Ones(Shape{2, 3, 5, 7}), false);
  EXPECT_EQ(layer.Forward(x).shape(), Shape({2, 8, 5, 7}));
}

TEST(MlpTest, StackAndActivation) {
  Rng rng(7);
  Mlp mlp({4, 8, 8, 2}, rng);
  Variable x(Tensor::Ones(Shape{5, 4}), false);
  EXPECT_EQ(mlp.Forward(x).shape(), Shape({5, 2}));
  EXPECT_EQ(mlp.Parameters().size(), 6u);  // 3 layers x (w, b)
}

TEST(ModuleTest, NamedParametersArePrefixed) {
  Rng rng(8);
  Mlp mlp({2, 3, 1}, rng);
  const auto named = mlp.NamedParameters();
  ASSERT_EQ(named.size(), 4u);
  EXPECT_EQ(named[0].first, "layer0.weight");
  EXPECT_EQ(named[3].first, "layer1.bias");
}

// Own parameters registered around two children, one of them nested, so the
// walk covers each level's own parameters before its children.
class TwoLevelModule : public Module {
 public:
  explicit TwoLevelModule(Rng& rng) : inner_({2, 3, 1}, rng), head_(1, 2, rng) {
    RegisterParameter("scale", Tensor::Ones(Shape{2}));
    RegisterChild("inner", &inner_);
    RegisterChild("head", &head_);
    RegisterParameter("shift", Tensor::Zeros(Shape{2}));
  }

 private:
  Mlp inner_;
  Linear head_;
};

TEST(ModuleTest, ParametersAreTheNamedParametersInOrder) {
  Rng rng(11);
  TwoLevelModule module(rng);
  const std::vector<Variable> params = module.Parameters();
  const auto named = module.NamedParameters();
  ASSERT_EQ(params.size(), 8u);  // scale, shift, inner's 2 x (w, b), head's (w, b)
  ASSERT_EQ(named.size(), params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(params[i].id(), named[i].second.id()) << named[i].first;
  }
  EXPECT_EQ(named[1].first, "shift");
  EXPECT_EQ(named[2].first, "inner.layer0.weight");
  EXPECT_EQ(named[7].first, "head.bias");
}

TEST(ModuleTest, NumParametersCounts) {
  Rng rng(9);
  Linear layer(3, 5, rng);
  EXPECT_EQ(layer.NumParameters(), 3 * 5 + 5);
}

TEST(ModuleTest, StateDictRoundTrip) {
  Rng rng(10);
  Mlp a({2, 4, 1}, rng);
  Mlp b({2, 4, 1}, rng);
  b.LoadStateDict(a.StateDict());
  Variable x(Tensor::Ones(Shape{3, 2}), false);
  EXPECT_TRUE(top::AllClose(a.Forward(x).value(), b.Forward(x).value()));
}

TEST(AdaptiveAdjacencyTest, RowStochastic) {
  Rng rng(13);
  AdaptiveAdjacency adaptive(6, 4, rng);
  Variable a = adaptive.Forward();
  EXPECT_EQ(a.shape(), Shape({6, 6}));
  Tensor row_sums = top::Sum(a.value(), {1});
  EXPECT_TRUE(top::AllClose(row_sums, Tensor::Ones(Shape{6}), 1e-5f));
  for (int64_t i = 0; i < a.value().NumElements(); ++i) {
    EXPECT_GE(a.value().FlatAt(i), 0.0f);
  }
}

TEST(DiffusionGcnTest, OutputShapeAndGrad) {
  Rng rng(14);
  DiffusionGcn gcn(3, 5, /*num_static_supports=*/1, /*use_adaptive=*/false,
                   /*max_diffusion_step=*/2, rng);
  Tensor support = Tensor::Eye(4);
  Variable x(Tensor::Ones(Shape{2, 3, 4, 6}), false);
  Variable y = gcn.Forward(x, {support}, Variable());
  EXPECT_EQ(y.shape(), Shape({2, 5, 4, 6}));
  ag::Mean(ag::Square(y)).Backward();
  for (const Variable& p : gcn.Parameters()) {
    EXPECT_GT(top::Abs(p.grad()).NumElements(), 0);
  }
}

TEST(DiffusionGcnTest, IdentitySupportMatchesSelfOnly) {
  // With identity support, P x == x; the layer is a pure channel mix.
  Rng rng(15);
  DiffusionGcn gcn(2, 2, 1, false, 1, rng);
  Variable x(Tensor::RandomNormal(Shape{1, 2, 3, 4}, rng), false);
  Variable y1 = gcn.Forward(x, {Tensor::Eye(3)}, Variable());
  EXPECT_EQ(y1.shape(), Shape({1, 2, 3, 4}));
}

TEST(DiffusionGcnTest, WrongSupportCountDies) {
  Rng rng(16);
  DiffusionGcn gcn(2, 2, 2, false, 1, rng);
  Variable x(Tensor::Ones(Shape{1, 2, 3, 4}), false);
  EXPECT_DEATH(gcn.Forward(x, {Tensor::Eye(3)}, Variable()), "configured for 2 supports");
}

TEST(GraphMatMulTest, MixesNodeAxis) {
  // Adjacency that swaps two nodes.
  Tensor swap = Tensor::FromVector(Shape{2, 2}, {0, 1, 1, 0});
  Tensor x = Tensor::FromVector(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
  Variable result = GraphMatMul(swap, Variable(x, false));
  EXPECT_TRUE(top::AllClose(result.value(),
                            Tensor::FromVector(Shape{1, 1, 2, 2}, {3, 4, 1, 2})));
}

TEST(GatedTcnTest, ShrinksTime) {
  Rng rng(17);
  GatedTcn tcn(3, 6, /*kernel_size=*/2, /*dilation=*/2, rng);
  EXPECT_EQ(tcn.TimeShrink(), 2);
  Variable x(Tensor::Ones(Shape{2, 3, 4, 10}), false);
  EXPECT_EQ(tcn.Forward(x).shape(), Shape({2, 6, 4, 8}));
}

TEST(GatedTcnTest, OutputBounded) {
  // tanh * sigmoid is in (-1, 1).
  Rng rng(18);
  GatedTcn tcn(1, 1, 2, 1, rng);
  Variable x(Tensor::RandomNormal(Shape{1, 1, 2, 8}, rng, 0.0f, 10.0f), false);
  const Tensor y = tcn.Forward(x).value();
  for (int64_t i = 0; i < y.NumElements(); ++i) {
    EXPECT_LT(std::fabs(y.FlatAt(i)), 1.0f);
  }
}

TEST(LossTest, MaeMseValues) {
  Variable pred(Tensor::FromVector(Shape{2}, {1, 3}), false);
  Variable target(Tensor::FromVector(Shape{2}, {0, 1}), false);
  EXPECT_FLOAT_EQ(MaeLoss(pred, target).value().Item(), 1.5f);
  EXPECT_FLOAT_EQ(MseLoss(pred, target).value().Item(), 2.5f);
}

TEST(LossTest, MaeShapeMismatchDies) {
  Variable a(Tensor::Ones(Shape{2}), false);
  Variable b(Tensor::Ones(Shape{3}), false);
  EXPECT_DEATH(MaeLoss(a, b), "shape mismatch");
}

TEST(LossTest, CosineSimilarityIdenticalIsOne) {
  Rng rng(19);
  Tensor v = Tensor::RandomNormal(Shape{3, 8}, rng);
  Variable a(v, false);
  const Tensor sims = CosineSimilarityRows(a, a).value();
  for (int64_t i = 0; i < 3; ++i) EXPECT_NEAR(sims.FlatAt(i), 1.0f, 1e-5);
}

TEST(LossTest, CosineSimilarityOppositeIsMinusOne) {
  Rng rng(20);
  Tensor v = Tensor::RandomNormal(Shape{2, 4}, rng);
  Variable a(v, false);
  Variable b(top::Neg(v), false);
  const Tensor sims = CosineSimilarityRows(a, b).value();
  for (int64_t i = 0; i < 2; ++i) EXPECT_NEAR(sims.FlatAt(i), -1.0f, 1e-5);
}

TEST(LossTest, L2NormalizeUnitNorm) {
  Rng rng(21);
  Variable v(Tensor::RandomNormal(Shape{4, 6}, rng), false);
  const Tensor n = L2Normalize(v).value();
  const Tensor norms = top::Sqrt(top::Sum(top::Square(n), {1}));
  EXPECT_TRUE(top::AllClose(norms, Tensor::Ones(Shape{4}), 1e-4f));
}

TEST(GraphClLossTest, PositivePairsAlignedGivesLowerLoss) {
  Rng rng(22);
  // Aligned: views identical. Misaligned: independent random.
  Tensor base = Tensor::RandomNormal(Shape{6, 8}, rng);
  Variable p_aligned(base, true);
  Variable z_aligned(base, true);
  const float aligned =
      GraphClLoss(p_aligned, p_aligned, z_aligned, z_aligned, 0.5f).value().Item();
  Variable p_rand(Tensor::RandomNormal(Shape{6, 8}, rng), true);
  Variable z_rand(Tensor::RandomNormal(Shape{6, 8}, rng), true);
  const float misaligned = GraphClLoss(p_rand, p_rand, z_rand, z_rand, 0.5f).value().Item();
  // Wait: z_rand equals p_rand's pair? Use independent p/z for misaligned case.
  (void)misaligned;
  Variable p2(Tensor::RandomNormal(Shape{6, 8}, rng), true);
  Variable z2(Tensor::RandomNormal(Shape{6, 8}, rng), true);
  const float independent = GraphClLoss(p2, p2, z2, z2, 0.5f).value().Item();
  EXPECT_LT(aligned, independent);
}

TEST(GraphClLossTest, GradientFlowsToProjectionsOnly) {
  Rng rng(23);
  Variable p1(Tensor::RandomNormal(Shape{4, 6}, rng), true);
  Variable p2(Tensor::RandomNormal(Shape{4, 6}, rng), true);
  Variable z1(Tensor::RandomNormal(Shape{4, 6}, rng), true);
  Variable z2(Tensor::RandomNormal(Shape{4, 6}, rng), true);
  Variable loss = GraphClLoss(p1, p2, z1, z2, 0.5f);
  loss.Backward();
  // Stop-gradient: encoder outputs z receive no gradient through this loss.
  EXPECT_TRUE(top::AllClose(z1.grad(), Tensor::Zeros(Shape{4, 6})));
  EXPECT_TRUE(top::AllClose(z2.grad(), Tensor::Zeros(Shape{4, 6})));
  EXPECT_GT(top::Max(top::Abs(p1.grad())).Item(), 0.0f);
  EXPECT_GT(top::Max(top::Abs(p2.grad())).Item(), 0.0f);
}

TEST(GraphClLossTest, SingleSampleFallsBackToSimSiam) {
  Rng rng(24);
  Tensor v = Tensor::RandomNormal(Shape{1, 5}, rng);
  Variable p(v, true);
  Variable z(v, true);
  // Perfect alignment -> negative cosine similarity = -1.
  EXPECT_NEAR(GraphClLoss(p, p, z, z, 0.5f).value().Item(), -1.0f, 1e-4);
}

TEST(GraphClLossTest, FiniteGradCheck) {
  std::vector<autograd::Variable> inputs;
  Rng rng(25);
  for (int i = 0; i < 4; ++i) {
    // z inputs (2, 3) are stop-gradiented by the loss, so finite differences
    // must not perturb them as trainables.
    inputs.emplace_back(Tensor::RandomUniform(Shape{3, 4}, rng, -1.0f, 1.0f), i < 2);
  }
  const auto result = autograd::CheckGradients(
      [](const std::vector<autograd::Variable>& in) {
        return GraphClLoss(in[0], in[1], in[2], in[3], 0.7f);
      },
      inputs, 1e-2f, 3e-2f);
  EXPECT_TRUE(result.passed) << "max_rel=" << result.max_rel_error;
}

}  // namespace
}  // namespace nn
}  // namespace urcl
