// Compiled-executor tests (ctest label `exec`, DESIGN.md §12): bitwise
// plan-vs-tape equality of forward, backward and Adam state across thread
// counts and for every op definition, the tape's gradient accumulation
// order, zero steady-state BufferPool traffic
// (also after an aborted run), arena layout validation, the sNaN poison
// audit over arena slots, the capture error paths (dropout RNG, graphs built
// outside the listener, a parameter holding a gradient), and PlanCache::Run's
// executor decision (permanent fallback, abort on a dropped backward, the
// tape for a held gradient).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "autograd/lint.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "core/urcl.h"
#include "data/synthetic.h"
#include "exec/arena.h"
#include "exec/plan.h"
#include "graph/generator.h"
#include "obs/flight_recorder.h"
#include "runtime/parallel.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"

namespace urcl {
namespace exec {
namespace {

namespace ag = ::urcl::autograd;
using ag::Variable;

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  if (!(a.shape() == b.shape())) return false;
  return std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.NumElements())) == 0;
}

// Serialized Adam state (step counter + first/second moments, params order):
// byte equality here means the two optimizers are indistinguishable.
std::string AdamStateBytes(const nn::Adam& adam) {
  std::ostringstream out;
  adam.SaveState(out);
  return out.str();
}

class ExecTrainerTest : public ::testing::Test {
 protected:
  core::UrclConfig SmallUrcl(int64_t nodes) {
    core::UrclConfig config;
    config.encoder.num_nodes = nodes;
    config.encoder.in_channels = 2;
    config.encoder.input_steps = 12;
    config.encoder.hidden_channels = 4;
    config.encoder.latent_channels = 8;
    config.encoder.num_layers = 3;
    config.encoder.adaptive_embedding_dim = 3;
    config.batch_size = 4;
    config.max_batches_per_epoch = 6;
    config.replay_sample_count = 2;
    config.rmir_scan_size = 6;
    config.rmir_candidate_pool = 4;
    config.buffer_capacity = 32;
    config.proj_hidden = 8;
    config.decoder_hidden = 16;
    return config;
  }

  data::StDataset SmallDataset(int64_t nodes, int64_t steps = 120) {
    data::TrafficConfig traffic;
    traffic.num_nodes = nodes;
    traffic.num_days = 2;
    traffic.steps_per_day = steps / 2;
    traffic.channels = 2;
    generator_ = std::make_unique<data::SyntheticTraffic>(traffic);
    Tensor series = generator_->GenerateSeries();
    normalizer_ = data::MinMaxNormalizer::Fit(series);
    return data::StDataset(normalizer_.Transform(series), data::WindowConfig{12, 1, 0});
  }

  // Trains two identically-seeded trainers — one per executor mode — on the
  // same stream and asserts the entire observable training state is byte
  // identical: every per-step loss, every parameter tensor, and the Adam
  // step counter + moments.
  void ExpectPlanMatchesTape(core::UrclConfig config, int num_threads, int epochs) {
    const int saved_threads = runtime::GetNumThreads();
    // A pool wider than the machine is capped to the core count unless
    // oversubscription is on; force it so 4/8-thread runs on small CI boxes
    // still execute real cross-thread kernels.
    runtime::SetOversubscribe(true);
    runtime::SetNumThreads(num_threads);

    data::StDataset dataset = SmallDataset(6);
    config.executor = ExecutorMode::kTape;
    core::UrclTrainer tape(config, generator_->network());
    config.executor = ExecutorMode::kPlan;
    core::UrclTrainer plan(config, generator_->network());

    tape.TrainStage(dataset, epochs);
    plan.TrainStage(dataset, epochs);

    runtime::SetOversubscribe(false);
    runtime::SetNumThreads(saved_threads);

    // The equality below is only evidence if the plan executor actually
    // engaged: all-failed captures would fall back to the tape and pass
    // trivially (exactly how a shape-inference regression once hid).
    EXPECT_EQ(tape.compiled_plan_count(), 0u);
    EXPECT_GT(plan.compiled_plan_count(), 0u);

    ASSERT_GT(tape.loss_history().size(), 0u);
    ASSERT_EQ(tape.loss_history().size(), plan.loss_history().size());
    for (size_t i = 0; i < tape.loss_history().size(); ++i) {
      const float a = tape.loss_history()[i];
      const float b = plan.loss_history()[i];
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(float)), 0)
          << "step " << i << ": tape " << a << " plan " << b;
    }

    const auto tape_params = tape.model().NamedParameters();
    const auto plan_params = plan.model().NamedParameters();
    ASSERT_EQ(tape_params.size(), plan_params.size());
    for (size_t i = 0; i < tape_params.size(); ++i) {
      EXPECT_EQ(tape_params[i].first, plan_params[i].first);
      EXPECT_TRUE(BitwiseEqual(tape_params[i].second.value(), plan_params[i].second.value()))
          << "parameter " << tape_params[i].first;
    }

    EXPECT_EQ(AdamStateBytes(tape.optimizer()), AdamStateBytes(plan.optimizer()));
    EXPECT_EQ(tape.quarantined_batches(), plan.quarantined_batches());
  }

  std::unique_ptr<data::SyntheticTraffic> generator_;
  data::MinMaxNormalizer normalizer_;
};

// Fully-planned training step (augmentation off makes the graph
// step-invariant, so the train family compiles alongside the RMIR virtual
// and per-item families).
TEST_F(ExecTrainerTest, PlanMatchesTapeBitwiseSingleThread) {
  core::UrclConfig config = SmallUrcl(6);
  config.enable_augmentation = false;
  ExpectPlanMatchesTape(config, /*num_threads=*/1, /*epochs=*/3);
}

TEST_F(ExecTrainerTest, PlanMatchesTapeBitwiseFourThreads) {
  core::UrclConfig config = SmallUrcl(6);
  config.enable_augmentation = false;
  ExpectPlanMatchesTape(config, /*num_threads=*/4, /*epochs=*/2);
}

TEST_F(ExecTrainerTest, PlanMatchesTapeBitwiseEightThreads) {
  core::UrclConfig config = SmallUrcl(6);
  config.enable_augmentation = false;
  ExpectPlanMatchesTape(config, /*num_threads=*/8, /*epochs=*/2);
}

// With SSL *and* augmentation on, the training graph draws fresh RNG views
// every step: the train family must fall back to the tape while the virtual
// and per-item families stay planned — and the mix must still be bitwise
// equal to a pure tape run.
TEST_F(ExecTrainerTest, AugmentedStepFallsBackToTapeBitwise) {
  core::UrclConfig config = SmallUrcl(6);
  ASSERT_TRUE(config.enable_ssl);
  ASSERT_TRUE(config.enable_augmentation);
  ExpectPlanMatchesTape(config, /*num_threads=*/1, /*epochs=*/2);
}

// Every trainer plan capture is flight-recorded. One plan-mode stage in the
// paper's configuration (augmentation, SSL, RMIR and mixup all on) compiles
// the RMIR virtual-step and per-item families; the augmented train step stays
// on the tape and never attempts a capture.
TEST_F(ExecTrainerTest, PaperConfigStageRecordsPlanCompileEvents) {
  core::UrclConfig config = SmallUrcl(6);
  ASSERT_TRUE(config.enable_augmentation && config.enable_ssl && config.enable_replay &&
              config.enable_rmir && config.enable_mixup);
  config.executor = ExecutorMode::kPlan;
  data::StDataset dataset = SmallDataset(6);
  core::UrclTrainer trainer(config, generator_->network());
  obs::FlightRecorder::Get().Clear();
  trainer.BeginStage(1);
  trainer.TrainStage(dataset, 1);

  std::vector<std::string> compiled;
  for (const obs::FlightEvent& event : obs::FlightRecorder::Get().Snapshot()) {
    const std::string detail(event.detail);
    EXPECT_NE(event.type, obs::FlightEventType::kPlanFallback) << detail;
    if (event.type != obs::FlightEventType::kPlanCompile) continue;
    EXPECT_EQ(event.a, 1) << "stage operand";
    compiled.push_back(detail.substr(0, detail.find(':')));
  }
  EXPECT_NE(std::find(compiled.begin(), compiled.end(), "per_item"), compiled.end());
  EXPECT_NE(std::find(compiled.begin(), compiled.end(), "virtual"), compiled.end());
  EXPECT_EQ(std::find(compiled.begin(), compiled.end(), "train"), compiled.end());
  EXPECT_EQ(trainer.compiled_plan_count(), compiled.size());
}

class PlanUnitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& pool = pool::BufferPool::Get();
    saved_poison_ = pool.poison_enabled();
    pool.Trim();
  }
  void TearDown() override { pool::BufferPool::Get().set_poison_enabled(saved_poison_); }

  // x: [B, C, N, T] ramp; distinct values across the block.
  static Tensor Ramp(const Shape& shape, float start, float step) {
    Tensor t = Tensor::Uninitialized(shape);
    float* p = t.mutable_data();
    for (int64_t i = 0; i < t.NumElements(); ++i) p[i] = start + step * static_cast<float>(i);
    return t;
  }

  bool saved_poison_ = false;
};

// Steady-state plan execution must never touch the BufferPool: the arena
// serves every kernel allocation. The window starts after ZeroGrad (which
// legitimately allocates the empty-grad sentinel from the pool).
TEST_F(PlanUnitTest, SteadyStateStepPerformsZeroPoolAcquisitions) {
  const Shape shape{8, 16};
  Tensor x = Ramp(shape, -0.9f, 0.013f);
  Variable w(Ramp(shape, 0.2f, 0.004f), /*requires_grad=*/true);

  const std::vector<Tensor> inputs{x};
  CompiledPlan::CaptureResult captured = CompiledPlan::Capture(
      inputs,
      [&] {
        Variable vx(x, /*requires_grad=*/false);
        return ag::Sum(ag::Mul(ag::Tanh(vx), w));
      },
      /*with_backward=*/true);
  ASSERT_NE(captured.plan, nullptr) << captured.error;
  CompiledPlan& plan = *captured.plan;

  // The measure run accumulated a real gradient on w; a fresh step starts
  // clean, exactly like the trainer's ZeroGrad-before-forward.
  w.ZeroGrad();
  plan.BindInputs({x});
  plan.RunForward();
  plan.RunBackward();  // warm-up replay
  w.ZeroGrad();

  auto& pool = pool::BufferPool::Get();
  pool.ResetCounters();
  plan.BindInputs({x});
  const Tensor& out = plan.RunForward();
  plan.RunBackward();
  const pool::PoolStats stats = pool.Stats();
  EXPECT_EQ(stats.hits, 0) << "steady-state plan step hit the BufferPool";
  EXPECT_EQ(stats.misses, 0) << "steady-state plan step missed into the BufferPool";

  EXPECT_EQ(out.NumElements(), 1);
  // d(sum(tanh(x) * w))/dw = tanh(x), nonzero for the ramp input.
  EXPECT_NE(w.grad().data()[0], 0.0f);
}

// Replays must match the tape bit for bit — forward value and accumulated
// parameter gradient — across repeated executions of the same plan.
TEST_F(PlanUnitTest, ReplayMatchesTapeForwardAndGradBitwise) {
  const Shape shape{4, 3, 5, 7};
  Tensor x = Ramp(shape, -1.0f, 0.002f);
  Variable w(Ramp(shape, 0.5f, 0.001f), /*requires_grad=*/true);

  const std::vector<Tensor> inputs{x};
  CompiledPlan::CaptureResult captured = CompiledPlan::Capture(
      inputs,
      [&] {
        Variable vx(x, /*requires_grad=*/false);
        return ag::Sum(ag::Mul(ag::Sigmoid(vx), w));
      },
      /*with_backward=*/true);
  ASSERT_NE(captured.plan, nullptr) << captured.error;
  CompiledPlan& plan = *captured.plan;

  // Tape reference on a twin parameter (same bytes, independent grad).
  Variable w_ref(w.value().Clone(), /*requires_grad=*/true);
  Variable loss_ref = ag::Sum(ag::Mul(ag::Sigmoid(Variable(x, false)), w_ref));
  loss_ref.Backward();

  for (int step = 0; step < 3; ++step) {
    w.ZeroGrad();
    plan.BindInputs({x});
    const Tensor& out = plan.RunForward();
    EXPECT_TRUE(BitwiseEqual(out, loss_ref.value())) << "step " << step;
    plan.RunBackward();
    EXPECT_TRUE(BitwiseEqual(w.grad(), w_ref.grad())) << "step " << step;
  }
}

// The plan runs backward in the tape's own order, not merely in some
// topological order. One parameter feeds three products whose gradients
// (1, 3 * 2^-26, -1) sum to 0 in the tape's order and to 2^-24 in reverse
// creation order, another valid schedule, so only the tape's order matches.
TEST_F(PlanUnitTest, BackwardAccumulatesInTheTapesOrder) {
  const Shape shape{4};
  Variable w(Tensor::Full(shape, 0.5f), /*requires_grad=*/true);
  const Tensor ca = Tensor::Full(shape, 1.0f);
  const Tensor cb = Tensor::Full(shape, std::ldexp(3.0f, -26));
  const Tensor cd = Tensor::Full(shape, -1.0f);
  auto build = [&] {
    Variable a = ag::Mul(w, Variable(ca, false));
    Variable b = ag::Mul(w, Variable(cb, false));
    Variable d = ag::Mul(w, Variable(cd, false));
    return ag::Sum(ag::Add(ag::Add(d, b), a));
  };
  w.ZeroGrad();
  build().Backward();
  const Tensor reference = w.grad().Clone();
  ASSERT_TRUE(BitwiseEqual(reference, Tensor::Zeros(shape)));

  w.ZeroGrad();
  CompiledPlan::CaptureResult captured = CompiledPlan::Capture({}, build, /*with_backward=*/true);
  ASSERT_NE(captured.plan, nullptr) << captured.error;
  captured.plan->BindInputs({});
  captured.plan->RunForward();
  captured.plan->RunBackward();
  EXPECT_TRUE(BitwiseEqual(w.grad(), reference));
}

// A run abandoned between forward and backward (the trainer's quarantine of
// a non-finite loss) leaves the plan ready: the next step is still bitwise
// the tape and still draws nothing from the BufferPool.
TEST_F(PlanUnitTest, AbortedRunLeavesPlanBitwiseAndPoolFree) {
  const Shape shape{8, 16};
  Tensor x = Ramp(shape, -0.9f, 0.013f);
  Variable w(Ramp(shape, 0.2f, 0.004f), /*requires_grad=*/true);
  auto build = [&x](const Variable& weight) {
    return ag::Sum(ag::Mul(ag::Tanh(Variable(x, /*requires_grad=*/false)), weight));
  };

  const std::vector<Tensor> inputs{x};
  CompiledPlan::CaptureResult captured =
      CompiledPlan::Capture(inputs, [&] { return build(w); }, /*with_backward=*/true);
  ASSERT_NE(captured.plan, nullptr) << captured.error;
  CompiledPlan& plan = *captured.plan;

  Variable w_ref(w.value().Clone(), /*requires_grad=*/true);
  Variable loss_ref = build(w_ref);
  loss_ref.Backward();

  w.ZeroGrad();
  auto& pool = pool::BufferPool::Get();
  pool.ResetCounters();
  plan.BindInputs({x});
  plan.RunForward();
  plan.Abort();
  plan.BindInputs({x});
  const Tensor& out = plan.RunForward();
  plan.RunBackward();
  const pool::PoolStats stats = pool.Stats();
  EXPECT_EQ(stats.hits, 0) << "aborted-then-replayed step hit the BufferPool";
  EXPECT_EQ(stats.misses, 0) << "aborted-then-replayed step missed into the BufferPool";

  EXPECT_TRUE(BitwiseEqual(out, loss_ref.value()));
  EXPECT_TRUE(BitwiseEqual(w.grad(), w_ref.grad()));
}

// One application of an op for EveryOpReplaysBitwiseAgainstTheTape: input
// shapes, an input value range clear of the op's poles, and attributes.
struct OpCase {
  ag::record::OpKind kind = ag::record::OpKind::kAdd;
  std::vector<Shape> inputs = {};
  ag::record::OpAttrs attrs = {};
  float lo = -1.5f;
  float hi = 1.5f;
};

std::vector<OpCase> EveryOpCases() {
  using K = ag::record::OpKind;
  return {
      {.kind = K::kAdd, .inputs = {Shape{3, 4}, Shape{4}}},
      {.kind = K::kSub, .inputs = {Shape{3, 4}, Shape{3, 1}}},
      {.kind = K::kMul, .inputs = {Shape{2, 3, 4}, Shape{3, 1}}},
      {.kind = K::kDiv, .inputs = {Shape{3, 4}, Shape{1, 4}}, .lo = 0.5f, .hi = 2.0f},
      {.kind = K::kAddScalar, .inputs = {Shape{3, 4}}, .attrs = {.scalar = 0.75f}},
      {.kind = K::kMulScalar, .inputs = {Shape{3, 4}}, .attrs = {.scalar = -1.25f}},
      {.kind = K::kExp, .inputs = {Shape{3, 4}}},
      {.kind = K::kLog, .inputs = {Shape{3, 4}}, .lo = 0.5f, .hi = 2.0f},
      {.kind = K::kSqrt, .inputs = {Shape{3, 4}}, .lo = 0.5f, .hi = 2.0f},
      {.kind = K::kAbs, .inputs = {Shape{3, 4}}},
      {.kind = K::kTanh, .inputs = {Shape{3, 4}}},
      {.kind = K::kSigmoid, .inputs = {Shape{3, 4}}},
      {.kind = K::kRelu, .inputs = {Shape{3, 4}}},
      {.kind = K::kLeakyRelu, .inputs = {Shape{3, 4}}, .attrs = {.scalar = 0.1f}},
      {.kind = K::kSquare, .inputs = {Shape{3, 4}}},
      {.kind = K::kMatMul, .inputs = {Shape{2, 3, 4}, Shape{4, 5}}},
      {.kind = K::kSum, .inputs = {Shape{2, 3, 4}}, .attrs = {.ints = {-1}}},
      {.kind = K::kMean, .inputs = {Shape{2, 3, 4}}, .attrs = {.flag = true, .ints = {0, 2}}},
      {.kind = K::kReshape, .inputs = {Shape{2, 3, 4}}, .attrs = {.ints = {6, 4}}},
      {.kind = K::kTranspose, .inputs = {Shape{2, 3, 4}}, .attrs = {.ints = {2, 0, -2}}},
      {.kind = K::kSlice,
       .inputs = {Shape{4, 5}},
       .attrs = {.ints = {1, 2}, .ints2 = {2, 3}}},
      {.kind = K::kConcat,
       .inputs = {Shape{2, 3}, Shape{2, 1}, Shape{2, 2}},
       .attrs = {.axis = -1}},
      {.kind = K::kPad, .inputs = {Shape{2, 3}}, .attrs = {.axis = 1, .before = 1, .after = 2}},
      {.kind = K::kBroadcastTo, .inputs = {Shape{1, 3}}, .attrs = {.ints = {4, 3}}},
      {.kind = K::kSoftmax, .inputs = {Shape{3, 5}}, .attrs = {.axis = -1}},
      {.kind = K::kTemporalConv2d,
       .inputs = {Shape{2, 3, 4, 7}, Shape{5, 3, 1, 2}},
       .attrs = {.axis = 2}},
      {.kind = K::kGraphMatMul, .inputs = {Shape{5, 5}, Shape{2, 3, 5, 4}}},
  };
}

// Every op definition on the plan against the tape, including ops no model
// graph uses: capture with backward, replay twice, and memcmp the root and
// every input gradient. Each op reads inputs that are themselves op outputs,
// so a liveness fact that lets the plan drop a value its backward reads
// aborts here with the op's name. The tape graph must also lint clean, so
// every op's shape rule is checked against its kernel by both consumers.
TEST_F(PlanUnitTest, EveryOpReplaysBitwiseAgainstTheTape) {
  std::vector<bool> covered(static_cast<size_t>(ag::record::OpKind::kDropout), false);
  for (const OpCase& c : EveryOpCases()) {
    SCOPED_TRACE(ag::record::OpName(c.kind));
    Rng rng(17);
    std::vector<Variable> params, twins;
    for (const Shape& shape : c.inputs) {
      const Tensor value = Tensor::RandomUniform(shape, rng, c.lo, c.hi);
      params.emplace_back(value.Clone(), /*requires_grad=*/true);
      twins.emplace_back(value.Clone(), /*requires_grad=*/true);
    }
    // root = sum(op(inputs) * weight): a non-uniform output gradient.
    std::optional<Tensor> weight;
    auto build = [&](const std::vector<Variable>& leaves) {
      std::vector<Variable> inputs;
      for (const Variable& leaf : leaves) inputs.push_back(ag::MulScalar(leaf, 1.0f));
      const Variable out = ag::Apply(c.kind, inputs, c.attrs);
      if (!weight) weight = Ramp(out.shape(), -0.7f, 0.013f);
      return ag::Sum(ag::Mul(out, Variable(*weight, /*requires_grad=*/false)));
    };
    Variable reference = build(twins);
    reference.Backward();
    // The op's shape rule (which the plan's shape inference also runs)
    // agrees with its kernel on the tape graph.
    const std::vector<ag::LintIssue> issues = ag::LintGraph(reference);
    EXPECT_TRUE(issues.empty()) << ag::FormatLintIssues(issues);

    CompiledPlan::CaptureResult captured =
        CompiledPlan::Capture({}, [&] { return build(params); }, /*with_backward=*/true);
    ASSERT_NE(captured.plan, nullptr) << captured.error;
    for (int run = 0; run < 2; ++run) {
      for (const Variable& p : params) p.ZeroGrad();
      captured.plan->BindInputs({});
      EXPECT_TRUE(BitwiseEqual(captured.plan->RunForward(), reference.value())) << "run " << run;
      captured.plan->RunBackward();
      for (size_t i = 0; i < params.size(); ++i) {
        EXPECT_TRUE(BitwiseEqual(params[i].grad(), twins[i].grad()))
            << "run " << run << ", gradient of input " << i;
      }
    }
    covered[static_cast<size_t>(c.kind)] = true;
  }
  for (size_t k = 0; k < covered.size(); ++k) {
    EXPECT_TRUE(covered[k]) << "no case for op "
                            << ag::record::OpName(static_cast<ag::record::OpKind>(k));
  }
}

// Poison audit (PR-5 machinery over arena slots): with pool poisoning on,
// every non-zero-filled arena handout is sNaN-filled, so any slot read
// before being fully written would poison the output. A clean, bitwise-equal
// output across repeated replays proves every slot is written first.
TEST_F(PlanUnitTest, PoisonedArenaSlotsAreFullyWrittenBeforeRead) {
  pool::BufferPool::Get().set_poison_enabled(true);

  const Shape shape{2, 3, 4, 5};
  Tensor x = Ramp(shape, -0.6f, 0.007f);
  Tensor y = Ramp(shape, 0.4f, -0.005f);
  Tensor b1 = Ramp(Shape{1, 3, 1, 1}, 0.3f, 0.02f);
  Tensor b2 = Ramp(Shape{1, 3, 1, 1}, -0.1f, 0.04f);

  auto build = [&] {
    Variable t = ag::Tanh(ag::Add(Variable(x, false), Variable(b1, false)));
    Variable s = ag::Sigmoid(ag::Add(Variable(y, false), Variable(b2, false)));
    return ag::Mul(t, s);
  };
  const Tensor reference = build().value();

  const std::vector<Tensor> inputs{x, y};
  CompiledPlan::CaptureResult captured =
      CompiledPlan::Capture(inputs, build, /*with_backward=*/false);
  ASSERT_NE(captured.plan, nullptr) << captured.error;

  for (int run = 0; run < 3; ++run) {
    captured.plan->BindInputs({x, y});
    const Tensor& out = captured.plan->RunForward();
    EXPECT_EQ(pool::CountPoisonWords(out.data(), out.NumElements()), 0) << "run " << run;
    EXPECT_TRUE(BitwiseEqual(out, reference)) << "run " << run;
  }
}

// Dropout draws a fresh RNG mask per step — the graph is not replayable and
// capture must refuse it (the trainer then stays on the tape).
TEST_F(PlanUnitTest, DropoutGraphRefusesCapture) {
  Tensor x = Ramp(Shape{4, 4}, 0.0f, 0.1f);
  Rng rng(3);
  const std::vector<Tensor> inputs{x};
  CompiledPlan::CaptureResult captured = CompiledPlan::Capture(
      inputs,
      [&] { return ag::Dropout(Variable(x, false), 0.5f, rng, /*training=*/true); },
      /*with_backward=*/false);
  EXPECT_EQ(captured.plan, nullptr);
  EXPECT_NE(captured.error.find("not replayable"), std::string::npos) << captured.error;
}

// A capture's measure run executes the backward once; the gradients it
// accumulated are cleared again, so parameters zeroed before the capture
// are still zero after it.
TEST_F(PlanUnitTest, CaptureWithBackwardLeavesZeroedGradientsZero) {
  const Shape shape{8, 16};
  Tensor x = Ramp(shape, -0.9f, 0.013f);
  Variable w(Ramp(shape, 0.2f, 0.004f), /*requires_grad=*/true);
  w.ZeroGrad();
  CompiledPlan::CaptureResult captured = CompiledPlan::Capture(
      {x}, [&] { return ag::Sum(ag::Mul(ag::Tanh(Variable(x, false)), w)); },
      /*with_backward=*/true);
  ASSERT_NE(captured.plan, nullptr) << captured.error;
  EXPECT_TRUE(BitwiseEqual(w.grad(), Tensor::Zeros(shape)));
}

// PlanCache::Run over a graph that cannot be captured: the first run tries,
// flight-records one kPlanFallback naming the family and answers from the
// tape; later runs on that shape go straight to the tape.
TEST_F(PlanUnitTest, FailedCaptureIsRecordedOnceAndNeverRetried) {
  Tensor x = Ramp(Shape{4, 4}, 0.0f, 0.1f);
  Rng rng(3);
  const auto build = [&] {
    return ag::Dropout(Variable(x, false), 0.5f, rng, /*training=*/true);
  };
  PlanCache cache("dropout", ExecutorMode::kPlan);
  obs::FlightRecorder::Get().Clear();
  {
    const PlanRun first = cache.Run({x}, build, /*with_backward=*/false, 3, 4);
    EXPECT_TRUE(first.captured());
    EXPECT_FALSE(first.compiled());
    ASSERT_NE(first.tape_root(), nullptr);
    EXPECT_TRUE(BitwiseEqual(first.value(), first.tape_root()->value()));
  }
  const PlanRun second = cache.Run({x}, build, /*with_backward=*/false, 5, 6);
  EXPECT_FALSE(second.captured());
  EXPECT_FALSE(second.compiled());
  EXPECT_EQ(cache.captures(), 1);
  EXPECT_EQ(cache.num_compiled(), 0u);

  int fallbacks = 0;
  for (const obs::FlightEvent& event : obs::FlightRecorder::Get().Snapshot()) {
    EXPECT_NE(event.type, obs::FlightEventType::kPlanCompile);
    if (event.type != obs::FlightEventType::kPlanFallback) continue;
    ++fallbacks;
    EXPECT_EQ(std::string(event.detail).rfind("dropout: ", 0), 0u) << event.detail;
    EXPECT_EQ(event.a, 3);
    EXPECT_EQ(event.b, 4);
  }
  EXPECT_EQ(fallbacks, 1);
}

// A with_backward run dropped before its backward (the trainer's quarantine
// of a non-finite loss) aborts its plan on the way back into the cache: the
// next run replays that plan and is still bitwise the tape.
TEST_F(PlanUnitTest, RunDroppedBeforeBackwardAbortsItsPlan) {
  const Shape shape{8, 16};
  Tensor x = Ramp(shape, -0.9f, 0.013f);
  Variable w(Ramp(shape, 0.2f, 0.004f), /*requires_grad=*/true);
  auto build = [&x](const Variable& weight) {
    return ag::Sum(ag::Mul(ag::Tanh(Variable(x, /*requires_grad=*/false)), weight));
  };
  Variable w_ref(w.value().Clone(), /*requires_grad=*/true);
  Variable loss_ref = build(w_ref);
  loss_ref.Backward();

  PlanCache cache("train", ExecutorMode::kPlan);
  const auto run = [&] {
    w.ZeroGrad();
    return cache.Run({x}, [&] { return build(w); }, /*with_backward=*/true, 0, 0);
  };
  run().Backward();  // captures
  EXPECT_TRUE(run().compiled());  // replays forward only, then is dropped
  PlanRun replay = run();
  ASSERT_TRUE(replay.compiled());
  EXPECT_TRUE(BitwiseEqual(replay.value(), loss_ref.value()));
  replay.Backward();
  EXPECT_TRUE(BitwiseEqual(w.grad(), w_ref.grad()));
}

// A parameter that already holds a gradient (here from the capturing run's
// tape backward, not zeroed) cannot replay: the measure run allocated its
// gradient, and adding into a held one would diverge from it. PlanCache::Run
// answers that call on the tape, which adds into the held gradient exactly
// as a tape-only run does, and flight-records why; Capture refuses it with
// the same reason and leaves the gradient alone.
TEST_F(PlanUnitTest, HeldGradientRunsOnTheTapeBitwise) {
  const Shape shape{8, 16};
  Tensor x = Ramp(shape, -0.9f, 0.013f);
  Variable w(Ramp(shape, 0.2f, 0.004f), /*requires_grad=*/true);
  auto build = [&x](const Variable& weight) {
    return ag::Sum(ag::Mul(ag::Tanh(Variable(x, /*requires_grad=*/false)), weight));
  };
  Variable w_ref(w.value().Clone(), /*requires_grad=*/true);
  build(w_ref).Backward();
  const Tensor once = w_ref.grad().Clone();
  build(w_ref).Backward();
  const Tensor twice = w_ref.grad().Clone();

  PlanCache cache("train", ExecutorMode::kPlan);
  obs::FlightRecorder::Get().Clear();
  w.ZeroGrad();
  cache.Run({x}, [&] { return build(w); }, /*with_backward=*/true, 1, 2).Backward();
  ASSERT_EQ(cache.num_compiled(), 1u);
  EXPECT_TRUE(BitwiseEqual(w.grad(), once));

  {
    PlanRun held = cache.Run({x}, [&] { return build(w); }, /*with_backward=*/true, 3, 4);
    EXPECT_FALSE(held.compiled());
    EXPECT_FALSE(held.captured());
    held.Backward();
  }
  EXPECT_TRUE(BitwiseEqual(w.grad(), twice));
  EXPECT_EQ(cache.num_compiled(), 1u) << "the plan went back to the cache";
  int fallbacks = 0;
  for (const obs::FlightEvent& event : obs::FlightRecorder::Get().Snapshot()) {
    if (event.type != obs::FlightEventType::kPlanFallback) continue;
    ++fallbacks;
    EXPECT_STREQ(event.detail, "train: parameter 0 [8, 16] holds a gradient");
    EXPECT_EQ(event.a, 3);
    EXPECT_EQ(event.b, 4);
  }
  EXPECT_EQ(fallbacks, 1);

  CompiledPlan::CaptureResult refused =
      CompiledPlan::Capture({x}, [&] { return build(w); }, /*with_backward=*/true);
  EXPECT_EQ(refused.plan, nullptr);
  EXPECT_EQ(refused.error, "parameter 0 [8, 16] holds a gradient");
  EXPECT_TRUE(BitwiseEqual(w.grad(), twice));

  // Zeroed again, the next call replays the plan, bitwise the tape.
  w.ZeroGrad();
  PlanRun replay = cache.Run({x}, [&] { return build(w); }, /*with_backward=*/true, 5, 6);
  ASSERT_TRUE(replay.compiled());
  replay.Backward();
  EXPECT_TRUE(BitwiseEqual(w.grad(), once));
}

// A Variable with a backward function that predates the capture means part
// of the graph was built outside the listener — the plan would silently
// miss those ops, so capture must reject it.
TEST_F(PlanUnitTest, GraphBuiltOutsideListenerRefusesCapture) {
  Variable w(Ramp(Shape{2, 2}, 1.0f, 0.5f), /*requires_grad=*/true);
  Variable pre = ag::MulScalar(w, 2.0f);  // built before Capture
  const std::vector<Tensor> inputs;
  CompiledPlan::CaptureResult captured = CompiledPlan::Capture(
      inputs, [&] { return ag::Sum(pre); }, /*with_backward=*/false);
  EXPECT_EQ(captured.plan, nullptr);
  EXPECT_NE(captured.error.find("outside the capture"), std::string::npos) << captured.error;
}

TEST(ExecutorModeTest, NamesExecutors) {
  EXPECT_STREQ(ExecutorModeName(ExecutorMode::kPlan), "plan");
  EXPECT_STREQ(ExecutorModeName(ExecutorMode::kTape), "tape");
}

// The arena's whole correctness argument: no two events with overlapping
// lifetimes may overlap in memory. Seed a deliberately bad assignment and
// assert the validator rejects it (and accepts the disjoint fix).
TEST(ArenaLayoutTest, RejectsOverlappingLifetimesSharingMemory) {
  std::vector<ArenaEvent> events(2);
  events[0].count = 32;
  events[0].alloc_tick = 0;
  events[0].free_tick = 4;
  events[0].offset = 0;
  events[0].size = 32;
  events[1].count = 32;
  events[1].alloc_tick = 1;  // alive while event 0 is alive
  events[1].free_tick = 3;
  events[1].offset = 16;  // overlaps [0, 32)
  events[1].size = 32;

  std::string error;
  EXPECT_FALSE(ValidateLayout(events, /*total_floats=*/64, &error));
  EXPECT_FALSE(error.empty());

  // Same memory, disjoint lifetimes: sound.
  events[1].alloc_tick = 4;
  events[1].free_tick = 6;
  events[1].offset = 0;
  EXPECT_TRUE(ValidateLayout(events, /*total_floats=*/64, &error)) << error;

  // Overlapping memory with an infinite-lifetime slot: always rejected.
  events[0].free_tick = kInfiniteTick;
  events[1].offset = 16;
  EXPECT_FALSE(ValidateLayout(events, /*total_floats=*/64, &error));

  // A slot past the end of the arena never validates.
  events[1].alloc_tick = 100;
  events[1].free_tick = 101;
  events[1].offset = 48;  // 48 + 32 > 64
  EXPECT_FALSE(ValidateLayout(events, /*total_floats=*/64, &error));
}

}  // namespace
}  // namespace exec
}  // namespace urcl
