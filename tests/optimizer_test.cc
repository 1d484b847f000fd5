#include "nn/optimizer.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "tensor/tensor_ops.h"

namespace urcl {
namespace nn {
namespace {

namespace ag = ::urcl::autograd;
namespace top = ::urcl::ops;

// Minimizes f(w) = (w - 3)^2 and checks convergence.
float MinimizeQuadratic(Adam& opt, Variable& w, int steps) {
  for (int i = 0; i < steps; ++i) {
    opt.ZeroGrad();
    Variable loss = ag::Square(ag::AddScalar(w, -3.0f));
    loss.Backward();
    opt.Step();
  }
  return w.value().Item();
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Variable w(Tensor::Scalar(10.0f), true);
  Adam adam({w}, {.lr = 0.2f});
  EXPECT_NEAR(MinimizeQuadratic(adam, w, 300), 3.0f, 1e-2);
}

TEST(AdamTest, FirstStepIsLrSized) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  Variable w(Tensor::Scalar(5.0f), true);
  Adam adam({w}, {.lr = 0.1f});
  adam.ZeroGrad();
  ag::Square(w).Backward();
  adam.Step();
  EXPECT_NEAR(w.value().Item(), 4.9f, 1e-3);
}

TEST(AdamTest, WeightDecayShrinksWeights) {
  Variable w(Tensor::Scalar(1.0f), true);
  Adam adam({w}, {.lr = 0.01f, .weight_decay = 1.0f});
  for (int i = 0; i < 50; ++i) {
    adam.ZeroGrad();
    // Zero-gradient objective; only decay acts.
    Variable loss = ag::MulScalar(w, 0.0f);
    loss.Backward();
    adam.Step();
  }
  EXPECT_LT(w.value().Item(), 0.9f);
}

TEST(AdamTest, TrainsLinearRegression) {
  Rng rng(1);
  // y = 2x + 1 with noise-free data.
  Tensor xs = Tensor::RandomUniform(Shape{32, 1}, rng, -1.0f, 1.0f);
  Tensor ys = top::AddScalar(top::MulScalar(xs, 2.0f), 1.0f);
  Linear model(1, 1, rng);
  Adam adam(model.Parameters(), {.lr = 0.05f});
  float last_loss = 1e9f;
  for (int epoch = 0; epoch < 200; ++epoch) {
    adam.ZeroGrad();
    Variable loss = MseLoss(model.Forward(Variable(xs, false)), Variable(ys, false));
    loss.Backward();
    adam.Step();
    last_loss = loss.value().Item();
  }
  EXPECT_LT(last_loss, 1e-3f);
}

TEST(ClipGradNormTest, ScalesDownLargeGradients) {
  Variable w(Tensor::FromVector(Shape{2}, {3.0f, 4.0f}), true);
  Adam adam({w}, {.lr = 1.0f});
  adam.ZeroGrad();
  // grad = w (norm 5) for loss = 0.5*||w||^2
  Variable loss = ag::MulScalar(ag::Sum(ag::Square(w)), 0.5f);
  loss.Backward();
  const float pre_norm = adam.ClipGradNorm(1.0f);
  EXPECT_NEAR(pre_norm, 5.0f, 1e-4);
  const Tensor g = w.grad();
  const float post_norm = std::sqrt(g.FlatAt(0) * g.FlatAt(0) + g.FlatAt(1) * g.FlatAt(1));
  EXPECT_NEAR(post_norm, 1.0f, 1e-4);
}

TEST(ClipGradNormTest, LeavesSmallGradientsAlone) {
  Variable w(Tensor::FromVector(Shape{2}, {0.3f, 0.4f}), true);
  Adam adam({w}, {.lr = 1.0f});
  adam.ZeroGrad();
  ag::MulScalar(ag::Sum(ag::Square(w)), 0.5f).Backward();
  adam.ClipGradNorm(10.0f);
  EXPECT_NEAR(w.grad().FlatAt(0), 0.3f, 1e-5);
}

TEST(OptimizerTest, RejectsNonTrainableParams) {
  Variable w(Tensor::Scalar(1.0f), /*requires_grad=*/false);
  EXPECT_DEATH(Adam({w}, {.lr = 0.1f}), "non-trainable");
}

// --- Opt-in robustness guard (AdamConfig::check_finite).

TEST(AdamGuardTest, NonFiniteGradientSkipsTheWholeUpdate) {
  Variable w(Tensor::Scalar(1.0f), true);
  AdamConfig config;
  config.lr = 0.1f;
  config.check_finite = true;
  Adam adam({w}, config);

  adam.ZeroGrad();
  w.AccumulateGrad(Tensor::Scalar(std::numeric_limits<float>::quiet_NaN()));
  adam.Step();

  ASSERT_TRUE(adam.last_step_report().has_value());
  EXPECT_EQ(adam.last_step_report()->kind, NonFiniteReport::Kind::kGradient);
  EXPECT_EQ(adam.last_step_report()->param_index, 0);
  EXPECT_EQ(adam.step_count(), 0);                // update skipped entirely
  EXPECT_FLOAT_EQ(w.value().Item(), 1.0f);        // parameter untouched

  // A clean step afterwards clears the report and applies normally.
  adam.ZeroGrad();
  ag::Square(w).Backward();
  adam.Step();
  EXPECT_FALSE(adam.last_step_report().has_value());
  EXPECT_EQ(adam.step_count(), 1);
  EXPECT_LT(w.value().Item(), 1.0f);
}

TEST(AdamGuardTest, CheckFiniteOffTrainsOnNan) {
  // Without the guard, a NaN gradient silently poisons the parameter — the
  // guard (and the trainer quarantine built on it) is what prevents this.
  Variable w(Tensor::Scalar(1.0f), true);
  Adam adam({w}, {.lr = 0.1f});
  adam.ZeroGrad();
  w.AccumulateGrad(Tensor::Scalar(std::numeric_limits<float>::quiet_NaN()));
  adam.Step();
  EXPECT_TRUE(std::isnan(w.value().Item()));
}

}  // namespace
}  // namespace nn
}  // namespace urcl
