// `urcl::check` integrity analysis (DESIGN.md §9): tensor write-version
// counters, the gated Backward() stale-capture verification, the autograd
// graph linter, and BufferPool poisoning. Each check family is exercised
// against a seeded defect that must be caught, plus a clean-path test proving
// no false positives (including a full trainer stage with checks forced on).
//
// The tier-1 build is Release, where URCL_CHECK (the one switch behind both
// the graph checks and pool poisoning) defaults to off — every test toggles
// the gates explicitly and restores them.
#include <cmath>

#include <gtest/gtest.h>

#include "autograd/lint.h"
#include "autograd/ops.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/urcl.h"
#include "data/synthetic.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace urcl {
namespace {

namespace ag = ::urcl::autograd;

bool HasRule(const std::vector<ag::LintIssue>& issues, const std::string& rule) {
  for (const ag::LintIssue& issue : issues) {
    if (issue.rule == rule) return true;
  }
  return false;
}

class GraphChecksTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = check::GraphChecksEnabled();
    check::SetGraphChecksEnabled(true);
  }
  void TearDown() override { check::SetGraphChecksEnabled(saved_); }
  bool saved_ = false;
};

// --- Tensor write-version counters -----------------------------------------

TEST(TensorVersionTest, MutationsBumpTheCounter) {
  Tensor t = Tensor::Zeros(Shape{2, 3});
  const uint64_t v0 = t.version();
  t.Fill(1.0f);
  EXPECT_GT(t.version(), v0);
  const uint64_t v1 = t.version();
  t.Set({0, 0}, 2.0f);
  EXPECT_GT(t.version(), v1);
  const uint64_t v2 = t.version();
  (void)t.mutable_data();
  EXPECT_GT(t.version(), v2);
}

TEST(TensorVersionTest, ReadsDoNotBumpTheCounter) {
  Tensor t = Tensor::Ones(Shape{4});
  const uint64_t v0 = t.version();
  (void)t.data();
  (void)t.At({2});
  EXPECT_EQ(t.version(), v0);
}

TEST(TensorVersionTest, CloneGetsItsOwnCounter) {
  Tensor t = Tensor::Ones(Shape{4});
  Tensor copy = t.Clone();
  EXPECT_NE(t.version_counter().get(), copy.version_counter().get());
  const uint64_t v0 = t.version();
  copy.Fill(3.0f);
  EXPECT_EQ(t.version(), v0);
}

// --- Gated stale-capture verification in Backward --------------------------

TEST(GraphChecksDeathTest, BackwardDiesOnInPlaceMutationOfCapturedParent) {
  EXPECT_DEATH(
      {
        check::SetGraphChecksEnabled(true);
        ag::Variable x(Tensor::Ones(Shape{2, 2}), /*requires_grad=*/true);
        ag::Variable loss = ag::Sum(ag::Square(x));
        x.internal_node()->value.Fill(7.0f);  // seeded defect
        loss.Backward();
      },
      "urcl.check/version.*mutated in place after record");
}

TEST(GraphChecksDeathTest, BackwardDiesOnSetValueOfCapturedParent) {
  EXPECT_DEATH(
      {
        check::SetGraphChecksEnabled(true);
        ag::Variable x(Tensor::Ones(Shape{2, 2}), /*requires_grad=*/true);
        ag::Variable loss = ag::Sum(ag::Square(x));
        x.SetValue(Tensor::Full(Shape{2, 2}, 7.0f));  // seeded defect
        loss.Backward();
      },
      "urcl.check/version.*storage was replaced");
}

TEST(GraphChecksDeathTest, TrainerGateDiesOnStaleGraph) {
  EXPECT_DEATH(
      {
        check::SetGraphChecksEnabled(true);
        ag::Variable x(Tensor::Ones(Shape{3}), /*requires_grad=*/true);
        ag::Variable loss = ag::Mean(ag::Mul(x, x));
        x.internal_node()->value.Set({1}, -2.0f);
        ag::CheckGraph(loss);
      },
      "urcl.check/version");
}

TEST_F(GraphChecksTest, DisabledGateSkipsVerification) {
  check::SetGraphChecksEnabled(false);
  ag::Variable x(Tensor::Ones(Shape{2, 2}), /*requires_grad=*/true);
  ag::Variable loss = ag::Sum(ag::Square(x));
  x.internal_node()->value.Fill(7.0f);
  loss.Backward();  // stale capture tolerated when the gate is off
  EXPECT_EQ(x.grad().NumElements(), 4);
}

TEST_F(GraphChecksTest, CleanBackwardPassesWithChecksOn) {
  ag::Variable x(Tensor::Ones(Shape{2, 2}), /*requires_grad=*/true);
  ag::Variable loss = ag::Sum(ag::Square(x));
  loss.Backward();
  EXPECT_FLOAT_EQ(loss.value().At({}), 4.0f);
  EXPECT_FLOAT_EQ(x.grad().At({0, 0}), 2.0f);
}

// --- Graph linter -----------------------------------------------------------

TEST_F(GraphChecksTest, LintCleanGraphIsEmpty) {
  ag::Variable x(Tensor::Ones(Shape{2, 3}), /*requires_grad=*/true);
  ag::Variable w(Tensor::Ones(Shape{3, 4}), /*requires_grad=*/true);
  ag::Variable loss = ag::Mean(ag::Relu(ag::MatMul(x, w)));
  const std::vector<ag::LintIssue> issues = ag::LintGraph(loss);
  EXPECT_TRUE(issues.empty()) << ag::FormatLintIssues(issues);
}

TEST_F(GraphChecksTest, LintReportsStaleCaptureNonFatally) {
  ag::Variable x(Tensor::Ones(Shape{2}), /*requires_grad=*/true);
  ag::Variable loss = ag::Sum(ag::Square(x));
  x.internal_node()->value.Fill(5.0f);
  const std::vector<ag::LintIssue> issues = ag::LintGraph(loss);
  EXPECT_TRUE(HasRule(issues, "version")) << ag::FormatLintIssues(issues);
}

TEST_F(GraphChecksTest, LintFlagsArityMismatch) {
  // Seeded defect: a binary 'mul' recorded with a single parent.
  ag::Variable x(Tensor::Ones(Shape{2}), /*requires_grad=*/true);
  ag::Variable bad =
      ag::Variable::MakeOp(Tensor::Ones(Shape{2}), ag::record::OpKind::kMul, {x}, {});
  const std::vector<ag::LintIssue> issues = ag::LintGraph(bad);
  EXPECT_TRUE(HasRule(issues, "arity")) << ag::FormatLintIssues(issues);
}

TEST_F(GraphChecksTest, LintFlagsShapeMismatch) {
  // Seeded defect: an 'add' whose output shape is not the broadcast of its
  // parents — backward would feed AccumulateGrad a mismatched gradient.
  ag::Variable a(Tensor::Ones(Shape{2, 3}), /*requires_grad=*/true);
  ag::Variable b(Tensor::Ones(Shape{2, 3}), /*requires_grad=*/true);
  ag::Variable bad =
      ag::Variable::MakeOp(Tensor::Ones(Shape{4}), ag::record::OpKind::kAdd, {a, b}, {});
  const std::vector<ag::LintIssue> issues = ag::LintGraph(bad);
  EXPECT_TRUE(HasRule(issues, "shape")) << ag::FormatLintIssues(issues);
}

TEST_F(GraphChecksTest, LintChecksTransposeShapeAgainstItsPerm) {
  // Seeded defect: a 'transpose' by perm {1, 0} whose value keeps its
  // parent's [2, 3] shape instead of [3, 2].
  ag::Variable x(Tensor::Ones(Shape{2, 3}), /*requires_grad=*/true);
  ag::Variable bad = ag::Variable::MakeOp(Tensor::Ones(Shape{2, 3}),
                                          ag::record::OpKind::kTranspose, {x}, {.ints = {1, 0}});
  const std::vector<ag::LintIssue> issues = ag::LintGraph(bad);
  EXPECT_TRUE(HasRule(issues, "shape")) << ag::FormatLintIssues(issues);
}

TEST_F(GraphChecksTest, LintChecksTemporalConvTimeExtent) {
  // Seeded defect: input [1, 2, 3, 7] convolved by a width-2 kernel at
  // dilation 2 leaves 7 - 2 = 5 steps, but the value claims 6.
  ag::Variable input(Tensor::Ones(Shape{1, 2, 3, 7}), /*requires_grad=*/true);
  ag::Variable weight(Tensor::Ones(Shape{4, 2, 1, 2}), /*requires_grad=*/true);
  ag::Variable bad =
      ag::Variable::MakeOp(Tensor::Ones(Shape{1, 4, 3, 6}), ag::record::OpKind::kTemporalConv2d,
                           {input, weight}, {.axis = 2});
  const std::vector<ag::LintIssue> issues = ag::LintGraph(bad);
  EXPECT_TRUE(HasRule(issues, "shape")) << ag::FormatLintIssues(issues);
}

TEST_F(GraphChecksTest, LintFlagsGradShapeMismatch) {
  ag::Variable x(Tensor::Ones(Shape{2, 2}), /*requires_grad=*/true);
  ag::Variable y = ag::Square(x);
  y.internal_node()->grad = Tensor::Zeros(Shape{5});  // seeded defect
  y.internal_node()->has_grad = true;
  const std::vector<ag::LintIssue> issues = ag::LintGraph(y);
  EXPECT_TRUE(HasRule(issues, "grad-shape")) << ag::FormatLintIssues(issues);
}

TEST_F(GraphChecksTest, LintFlagsBackwardClosureWithoutTrainableLeaves) {
  ag::Variable x(Tensor::Ones(Shape{3}), /*requires_grad=*/true);
  ag::Variable y = ag::Square(x);
  // Seeded defect: the only leaf loses requires_grad after recording, so the
  // closure above it can never receive a gradient consumer.
  x.internal_node()->requires_grad = false;
  const std::vector<ag::LintIssue> issues = ag::LintGraph(y);
  EXPECT_TRUE(HasRule(issues, "requires-grad")) << ag::FormatLintIssues(issues);
}

TEST_F(GraphChecksTest, LintFlagsCycle) {
  ag::Variable x(Tensor::Ones(Shape{2}), /*requires_grad=*/true);
  ag::Variable y = ag::Square(x);
  // Seeded defect: an edge from the leaf back to the output.
  x.internal_node()->parents.push_back(ag::internal::ParentEdge{
      y.internal_node(), y.value().version_counter(), y.value().version()});
  const std::vector<ag::LintIssue> issues = ag::LintGraph(y);
  EXPECT_TRUE(HasRule(issues, "cycle")) << ag::FormatLintIssues(issues);
  x.internal_node()->parents.clear();  // break the ownership cycle
}

TEST_F(GraphChecksTest, LintTerminatesOnCyclicGraph) {
  ag::Variable x(Tensor::Ones(Shape{2}), /*requires_grad=*/true);
  // Self-loop: the DFS must not spin on the back edge.
  x.internal_node()->parents.push_back(ag::internal::ParentEdge{
      x.internal_node(), x.value().version_counter(), x.value().version()});
  const std::vector<ag::LintIssue> issues = ag::LintGraph(x);
  EXPECT_TRUE(HasRule(issues, "cycle")) << ag::FormatLintIssues(issues);
  x.internal_node()->parents.clear();  // break the ownership cycle
}

// --- BufferPool poisoning ---------------------------------------------------

class PoolPoisonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pool::BufferPool& pool = pool::BufferPool::Get();
    saved_ = pool.poison_enabled();
    pool.set_poison_enabled(true);
    // Drop buffers cached while poisoning may have been off: pooled buffers
    // are assumed to be poisoned at Release time.
    pool.Trim();
  }
  void TearDown() override {
    pool::BufferPool& pool = pool::BufferPool::Get();
    pool.set_poison_enabled(saved_);
    pool.Trim();
  }
  bool saved_ = false;
};

TEST_F(PoolPoisonTest, UninitializedTensorIsFullyPoisoned) {
  Tensor t = Tensor::Uninitialized(Shape{2, 17});
  EXPECT_EQ(pool::CountPoisonWords(t.data(), t.NumElements()), t.NumElements());
}

TEST_F(PoolPoisonTest, RecycledBufferIsPoisonedNotStale) {
  const float* stale_ptr = nullptr;
  {
    Tensor t = Tensor::Full(Shape{64}, 3.25f);
    stale_ptr = t.data();
  }
  Tensor again = Tensor::Uninitialized(Shape{64});
  // Same size class, so the pool hands back the recycled buffer — the old
  // values must have been overwritten with the poison pattern.
  if (again.data() == stale_ptr) {
    EXPECT_EQ(pool::CountPoisonWords(again.data(), 64), 64);
  }
}

TEST_F(PoolPoisonTest, ZeroFillOverridesPoison) {
  Tensor t = Tensor::Zeros(Shape{33});
  EXPECT_EQ(pool::CountPoisonWords(t.data(), t.NumElements()), 0);
  for (int64_t i = 0; i < t.NumElements(); ++i) EXPECT_EQ(t.data()[i], 0.0f);
}

TEST_F(PoolPoisonTest, SeededUnderFilledKernelLeavesDetectablePoison) {
  // Seeded defect: a kernel that allocates Uninitialized output but writes
  // only the first half.
  const int64_t n = 64;
  Tensor out = Tensor::Uninitialized(Shape{n});
  float* dst = out.mutable_data();
  for (int64_t i = 0; i < n / 2; ++i) dst[i] = static_cast<float>(i);
  EXPECT_EQ(pool::CountPoisonWords(out.data(), n / 2), 0);
  EXPECT_EQ(pool::CountPoisonWords(out.data() + n / 2, n / 2), n / 2);
}

TEST_F(PoolPoisonTest, RealKernelsFullyWriteTheirOutputs) {
  // Audit regression for every Tensor::Uninitialized call site: with the pool
  // poisoning acquisitions, any element a kernel forgot to write would still
  // hold the signaling-NaN pattern.
  Rng rng(42);
  Tensor a = Tensor::RandomUniform(Shape{5, 7}, rng, -1.0f, 1.0f);
  Tensor b = Tensor::RandomUniform(Shape{7, 3}, rng, -1.0f, 1.0f);
  Tensor c = Tensor::RandomUniform(Shape{5, 7}, rng, 0.5f, 1.5f);

  const auto expect_clean = [](const Tensor& t, const char* what) {
    EXPECT_EQ(pool::CountPoisonWords(t.data(), t.NumElements()), 0) << what;
  };
  expect_clean(ops::MatMul(a, b), "matmul");
  expect_clean(ops::Add(a, c), "add");
  expect_clean(ops::Mul(a, c), "mul");
  expect_clean(ops::BroadcastTo(Tensor::Ones(Shape{1, 7}), Shape{5, 7}), "broadcast_to");
  expect_clean(ops::Transpose(a, {1, 0}), "transpose");
  expect_clean(ops::Slice(a, {1, 2}, {3, 4}), "slice");
  expect_clean(ops::Concat({a, c}, 0), "concat");
  expect_clean(ops::Softmax(a, -1), "softmax");
  expect_clean(ops::Exp(a), "exp");
  expect_clean(a.Clone(), "clone");
}

// --- No false positives through the full trainer ---------------------------

TEST_F(GraphChecksTest, TrainerStageRunsCleanWithChecksAndPoisonOn) {
  pool::BufferPool& pool = pool::BufferPool::Get();
  const bool saved_poison = pool.poison_enabled();
  pool.set_poison_enabled(true);
  pool.Trim();

  const int64_t nodes = 6;
  data::TrafficConfig traffic;
  traffic.num_nodes = nodes;
  traffic.num_days = 2;
  traffic.steps_per_day = 60;
  traffic.channels = 2;
  data::SyntheticTraffic generator(traffic);
  Tensor series = generator.GenerateSeries();
  data::MinMaxNormalizer normalizer = data::MinMaxNormalizer::Fit(series);
  data::StDataset dataset(normalizer.Transform(series), data::WindowConfig{12, 1, 0});

  core::UrclConfig config;
  config.encoder.num_nodes = nodes;
  config.encoder.in_channels = 2;
  config.encoder.input_steps = 12;
  config.encoder.hidden_channels = 4;
  config.encoder.latent_channels = 8;
  config.encoder.num_layers = 3;
  config.encoder.adaptive_embedding_dim = 3;
  config.batch_size = 4;
  config.max_batches_per_epoch = 4;
  config.replay_sample_count = 2;
  config.rmir_scan_size = 6;
  config.rmir_candidate_pool = 4;
  config.buffer_capacity = 32;
  config.proj_hidden = 8;
  config.decoder_hidden = 16;
  core::UrclTrainer trainer(config, generator.network());

  // The trainer gate lints every recorded loss graph before Backward; the
  // whole RMIR/replay/mixup path must produce no findings.
  const std::vector<float> losses = trainer.TrainStage(dataset, 2);
  ASSERT_EQ(losses.size(), 2u);
  for (const float loss : losses) EXPECT_TRUE(std::isfinite(loss));

  pool.set_poison_enabled(saved_poison);
  pool.Trim();
}

}  // namespace
}  // namespace urcl
