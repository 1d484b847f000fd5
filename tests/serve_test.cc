// Serving-layer tests (ctest label `serving`): bitwise equality between the
// tape forward and compiled plans that rebind each snapshot's weights,
// snapshot parse/publish round-trips, lock-free hot-swap under concurrent
// readers, rolling-window ingestion, version stamping and ServiceConfig
// validation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "autograd/variable.h"
#include "core/backbone.h"
#include "core/urcl.h"
#include "data/synthetic.h"
#include "exec/plan.h"
#include "graph/generator.h"
#include "obs/flight_recorder.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "tensor/tensor_ops.h"

namespace urcl {
namespace serve {
namespace {

core::UrclConfig TinyConfig(int64_t nodes, int64_t input_steps = 12,
                            core::BackboneType backbone = core::BackboneType::kGraphWaveNet) {
  core::UrclConfig config;
  config.backbone = backbone;
  config.encoder.num_nodes = nodes;
  config.encoder.in_channels = 2;
  config.encoder.input_steps = input_steps;
  config.encoder.hidden_channels = 4;
  config.encoder.latent_channels = 8;
  config.encoder.num_layers = 2;
  config.encoder.adaptive_embedding_dim = 3;
  config.decoder_hidden = 16;
  config.proj_hidden = 8;
  config.batch_size = 2;
  config.max_batches_per_epoch = 4;
  config.replay_sample_count = 2;
  config.rmir_scan_size = 4;
  config.rmir_candidate_pool = 4;
  config.buffer_capacity = 16;
  return config;
}

// True when the two tensors are byte-for-byte identical (stronger than any
// epsilon comparison; a compiled plan must replay the exact kernel sequence
// of the tape forward).
bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  if (!(a.shape() == b.shape())) return false;
  return std::memcmp(a.data(), b.data(), sizeof(float) * static_cast<size_t>(a.NumElements())) == 0;
}

Tensor TapeForward(const core::UrclModel& model, const Tensor& x, const Tensor& adjacency) {
  return model.Forward(autograd::Variable(x, /*requires_grad=*/false), adjacency).value();
}

// What ForecastService hands its plans: the query, then the model's weights.
std::vector<Tensor> PlanInputs(const Tensor& x, const core::UrclModel& model) {
  std::vector<Tensor> inputs{x};
  for (const autograd::Variable& param : model.Parameters()) inputs.push_back(param.value());
  return inputs;
}

TEST(ServingPlanTest, RebindsSnapshotWeightsBitwiseAcrossBackbones) {
  const core::BackboneType backbones[] = {core::BackboneType::kGraphWaveNet,
                                          core::BackboneType::kDcrnn,
                                          core::BackboneType::kGeoman};
  Rng data_rng(7);
  for (const core::BackboneType backbone : backbones) {
    // Random-ish shapes per backbone: vary nodes / window / batch.
    for (int round = 0; round < 2; ++round) {
      const int64_t nodes = data_rng.UniformInt(3, 7);
      const int64_t steps = data_rng.UniformInt(8, 14);
      const int64_t batch = data_rng.UniformInt(1, 3);
      const core::UrclConfig config = TinyConfig(nodes, steps, backbone);
      Rng capture_rng(41 + round);
      Rng serve_rng(141 + round);
      core::UrclModel captured(config, capture_rng);
      core::UrclModel served(config, serve_rng);
      const graph::SensorNetwork network = graph::RingGraph(nodes);
      const Tensor adjacency = network.AdjacencyMatrix();
      const Tensor x =
          Tensor::RandomUniform(Shape{batch, steps, nodes, 2}, data_rng, 0.0f, 1.0f);
      const std::string where = "backbone " + core::BackboneTypeName(backbone) + " round " +
                                std::to_string(round);

      const std::vector<Tensor> capture_inputs = PlanInputs(x, captured);
      exec::CompiledPlan::CaptureResult result = exec::CompiledPlan::Capture(
          capture_inputs,
          [&] {
            return captured.Forward(autograd::Variable(x, /*requires_grad=*/false), adjacency);
          },
          /*with_backward=*/false);
      ASSERT_NE(result.plan, nullptr) << where << ": " << result.error;

      // Rebound to another model's weights, the plan answers exactly what that
      // model's tape forward does...
      const Tensor expected = TapeForward(served, x, adjacency);
      ASSERT_FALSE(BitwiseEqual(expected, TapeForward(captured, x, adjacency))) << where;
      result.plan->BindInputs(PlanInputs(x, served));
      const Tensor planned = result.plan->RunForward().Clone();
      EXPECT_TRUE(BitwiseEqual(planned, expected))
          << where << " max abs diff " << ops::MaxAbsDiff(planned, expected);
      // ...and rebound back, what the capturing model's does.
      result.plan->BindInputs(capture_inputs);
      EXPECT_TRUE(BitwiseEqual(result.plan->RunForward(), TapeForward(captured, x, adjacency)))
          << where;
    }
  }
}

class ServeTrainerTest : public ::testing::Test {
 protected:
  static constexpr int64_t kNodes = 5;

  data::StDataset MakeDataset() {
    data::TrafficConfig traffic;
    traffic.num_nodes = kNodes;
    traffic.num_days = 2;
    traffic.steps_per_day = 60;
    traffic.channels = 2;
    generator_ = std::make_unique<data::SyntheticTraffic>(traffic);
    Tensor series = generator_->GenerateSeries();
    normalizer_ = data::MinMaxNormalizer::Fit(series);
    return data::StDataset(normalizer_.Transform(series), data::WindowConfig{12, 1, 0});
  }

  std::unique_ptr<data::SyntheticTraffic> generator_;
  data::MinMaxNormalizer normalizer_;
};

TEST_F(ServeTrainerTest, SnapshotRoundTripMatchesTrainerBitwise) {
  data::StDataset dataset = MakeDataset();
  const core::UrclConfig config = TinyConfig(kNodes);
  core::UrclTrainer trainer(config, generator_->network());
  std::vector<checkpoint::Container> published;
  trainer.SetSnapshotSink([&](const checkpoint::Container& c) { published.push_back(c); });
  trainer.TrainStage(dataset, 1);
  // At least the stage-end publication must have fired.
  ASSERT_GE(published.size(), 1u);
  EXPECT_EQ(trainer.snapshots_published(), static_cast<int64_t>(published.size()));

  std::shared_ptr<const ModelSnapshot> snapshot;
  const Status status = ParseModelSnapshot(published.back(), config, &snapshot);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(snapshot->version, static_cast<int64_t>(published.size()));
  EXPECT_EQ(snapshot->stage, 0);
  EXPECT_GT(snapshot->step_count, 0);

  // The last snapshot holds the trainer's final weights: identical forwards.
  const Tensor adjacency = generator_->network().AdjacencyMatrix();
  Rng rng(3);
  const Tensor x = Tensor::RandomUniform(Shape{2, 12, kNodes, 2}, rng, 0.0f, 1.0f);
  EXPECT_TRUE(BitwiseEqual(TapeForward(trainer.model(), x, adjacency),
                           TapeForward(*snapshot->model, x, adjacency)));
}

TEST_F(ServeTrainerTest, ParseRejectsMalformedContainers) {
  const core::UrclConfig config = TinyConfig(kNodes);
  std::shared_ptr<const ModelSnapshot> snapshot;

  checkpoint::Container empty;
  EXPECT_FALSE(ParseModelSnapshot(empty, config, &snapshot).ok());

  checkpoint::Container bad_meta;
  bad_meta.Add("serve_meta", "short");
  EXPECT_FALSE(ParseModelSnapshot(bad_meta, config, &snapshot).ok());

  // A real container parsed against a mismatched architecture is rejected
  // (different layer count => different tensor count).
  data::StDataset dataset = MakeDataset();
  core::UrclTrainer trainer(config, generator_->network());
  std::vector<checkpoint::Container> published;
  trainer.SetSnapshotSink([&](const checkpoint::Container& c) { published.push_back(c); });
  trainer.TrainStage(dataset, 1);
  ASSERT_GE(published.size(), 1u);
  core::UrclConfig other = config;
  other.encoder.num_layers = 3;
  const Status mismatch = ParseModelSnapshot(published.back(), other, &snapshot);
  EXPECT_FALSE(mismatch.ok());
}

TEST_F(ServeTrainerTest, RollingWindowIncrementalMatchesRebuild) {
  data::StDataset dataset = MakeDataset();
  ServiceConfig config;
  config.model = TinyConfig(kNodes);
  ForecastService service(config, generator_->network(), normalizer_);

  const int64_t window = config.model.encoder.input_steps;
  Rng rng(11);
  std::deque<Tensor> raw_history;
  EXPECT_FALSE(service.WindowReady());
  for (int64_t t = 0; t < window + 7; ++t) {
    const Tensor tick = Tensor::RandomUniform(Shape{kNodes, 2}, rng, 0.0f, 50.0f);
    raw_history.push_back(tick);
    if (static_cast<int64_t>(raw_history.size()) > window) raw_history.pop_front();
    service.IngestTick(tick);
    if (t + 1 < window) {
      EXPECT_FALSE(service.WindowReady());
      continue;
    }
    // Rebuild the window from scratch: stack the raw ticks and run the
    // training-time normalizer over the whole block.
    std::vector<Tensor> rows(raw_history.begin(), raw_history.end());
    const Tensor rebuilt = normalizer_.Transform(ops::Stack(rows, 0))
                               .Reshape(Shape{1, window, kNodes, 2});
    EXPECT_TRUE(BitwiseEqual(service.CurrentWindow(), rebuilt)) << "tick " << t;
  }
  EXPECT_EQ(service.ticks_ingested(), window + 7);
}

TEST_F(ServeTrainerTest, ServiceServesQueriesAndStampsVersions) {
  data::StDataset dataset = MakeDataset();
  ServiceConfig config;
  config.model = TinyConfig(kNodes);
  ForecastService service(config, generator_->network(), normalizer_);

  // No snapshot published yet: queries fail recoverably.
  core::PredictRequest request;
  Rng rng(5);
  request.inputs = Tensor::RandomUniform(Shape{1, 12, kNodes, 2}, rng, 0.0f, 1.0f);
  core::PredictResponse response;
  EXPECT_FALSE(service.Predict(request, &response).ok());

  core::UrclTrainer trainer(config.model, generator_->network());
  trainer.SetSnapshotSink(service.SnapshotSink());
  trainer.BeginStage(3);
  trainer.TrainStage(dataset, 1);  // publishes at stage end
  ASSERT_NE(service.hub().Current(), nullptr);

  ASSERT_TRUE(service.Predict(request, &response).ok());
  EXPECT_EQ(response.model_version, 1);
  EXPECT_EQ(response.stage, 3);
  EXPECT_EQ(response.predictions.shape(), (Shape{1, 1, kNodes, 1}));
  // Observability stamps: the serving health state the query was admitted
  // under, the executor that answered, and a minted causal trace ID.
  EXPECT_EQ(response.health_state, static_cast<int32_t>(HealthState::kHealthy));
  EXPECT_TRUE(response.executor == core::AnswerExecutor::kPlan ||
              response.executor == core::AnswerExecutor::kTape)
      << core::AnswerExecutorName(response.executor);
  EXPECT_NE(response.trace_id, 0u);

  // A caller-supplied trace ID is honored and echoed back.
  core::PredictRequest traced = request;
  traced.trace_id = 0xfeedbeefu;
  core::PredictResponse traced_response;
  ASSERT_TRUE(service.Predict(traced, &traced_response).ok());
  EXPECT_EQ(traced_response.trace_id, 0xfeedbeefu);

  // Oversized batches and horizons are shed with an error, not a crash.
  core::PredictRequest big = request;
  big.inputs = Tensor::Zeros(Shape{config.max_batch + 1, 12, kNodes, 2});
  EXPECT_FALSE(service.Predict(big, &response).ok());
  core::PredictRequest far = request;
  far.horizon = 99;
  EXPECT_FALSE(service.Predict(far, &response).ok());
  EXPECT_GT(service.served_queries(), 0);

  // Rolling-window forecasting: feed raw ticks, then query from the window.
  for (int64_t t = 0; t < 12; ++t) {
    service.IngestTick(Tensor::RandomUniform(Shape{kNodes, 2}, rng, 0.0f, 50.0f));
  }
  core::PredictResponse window_response;
  ASSERT_TRUE(service.Forecast(/*horizon=*/0, &window_response).ok());
  EXPECT_EQ(window_response.predictions.shape(), (Shape{1, 1, kNodes, 1}));
  EXPECT_EQ(window_response.model_version, 1);
}

TEST_F(ServeTrainerTest, StaleVersionStampingAcrossSwap) {
  data::StDataset dataset = MakeDataset();
  ServiceConfig config;
  config.model = TinyConfig(kNodes);
  ForecastService service(config, generator_->network(), normalizer_);

  core::UrclTrainer trainer(config.model, generator_->network());
  std::vector<checkpoint::Container> published;
  trainer.SetSnapshotSink([&](const checkpoint::Container& c) { published.push_back(c); });
  trainer.TrainStage(dataset, 1);
  ASSERT_GE(published.size(), 1u);

  auto sink = service.SnapshotSink();
  sink(published.back());  // version N becomes current
  const int64_t v1 = service.hub().Current()->version;

  core::PredictRequest request;
  Rng rng(9);
  request.inputs = Tensor::RandomUniform(Shape{1, 12, kNodes, 2}, rng, 0.0f, 1.0f);
  core::PredictResponse response;
  ASSERT_TRUE(service.Predict(request, &response).ok());
  EXPECT_EQ(response.model_version, v1);

  trainer.TrainStage(dataset, 1);  // publish a newer version
  sink(published.back());
  const int64_t v2 = service.hub().Current()->version;
  ASSERT_GT(v2, v1);
  // Previous() retains the retired version for diagnostics.
  ASSERT_NE(service.hub().Previous(), nullptr);
  EXPECT_EQ(service.hub().Previous()->version, v1);
  EXPECT_EQ(service.hub().swap_count(), 2);

  // Every query reads the hub's current version: the first one after the
  // swap already serves and stamps the new version.
  ASSERT_TRUE(service.Predict(request, &response).ok());
  EXPECT_EQ(response.model_version, v2);
}

TEST_F(ServeTrainerTest, HotSwapUnderConcurrentReaders) {
  data::StDataset dataset = MakeDataset();
  ServiceConfig config;
  config.model = TinyConfig(kNodes);
  config.executor = exec::ExecutorMode::kPlan;
  ForecastService service(config, generator_->network(), normalizer_);

  // Capture a stream of real snapshots up front (publish every step), then
  // replay them from a publisher thread while reader threads query.
  core::UrclTrainer trainer(config.model, generator_->network());
  std::vector<checkpoint::Container> published;
  trainer.SetSnapshotSink([&](const checkpoint::Container& c) { published.push_back(c); },
                          /*publish_every_steps=*/1);
  trainer.TrainStage(dataset, 1);
  ASSERT_GE(published.size(), 3u);

  auto sink = service.SnapshotSink();
  sink(published.front());  // make the first version live before readers start

  constexpr int kReaders = 8;
  constexpr int kQueriesPerReader = 20;
  std::atomic<int> failures{0};
  std::atomic<bool> non_monotone{false};
  // Each reader's query and its last answer, checked after the join.
  std::vector<core::PredictRequest> requests(kReaders);
  std::vector<core::PredictResponse> last_answers(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    Rng rng(100 + r);
    requests[r].inputs = Tensor::RandomUniform(Shape{1, 12, kNodes, 2}, rng, 0.0f, 1.0f);
    readers.emplace_back([&, r] {
      int64_t last_version = 0;
      for (int q = 0; q < kQueriesPerReader; ++q) {
        core::PredictResponse response;
        if (!service.Predict(requests[r], &response).ok()) {
          failures.fetch_add(1);
          continue;
        }
        // Each reader must observe monotonically non-decreasing versions.
        if (response.model_version < last_version) non_monotone.store(true);
        last_version = response.model_version;
        last_answers[r] = response;
      }
    });
  }
  // Publish the remaining snapshots concurrently with the readers.
  for (size_t i = 1; i < published.size(); ++i) sink(published[i]);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_FALSE(non_monotone.load());
  // Plans are pooled, not rebuilt per version: at most one per concurrent
  // query of this one shape, however many swaps happened.
  EXPECT_GE(service.plan_compiles(), 1);
  EXPECT_LE(service.plan_compiles(), kReaders);
  // Every reader's last answer is exactly the tape forward of the snapshot
  // that served it.
  const Tensor adjacency = generator_->network().AdjacencyMatrix();
  for (int r = 0; r < kReaders; ++r) {
    const int64_t version = last_answers[r].model_version;
    ASSERT_GE(version, 1) << "reader " << r;
    std::shared_ptr<const ModelSnapshot> snapshot;
    ASSERT_TRUE(
        ParseModelSnapshot(published[static_cast<size_t>(version - 1)], config.model, &snapshot)
            .ok());
    ASSERT_EQ(snapshot->version, version);
    EXPECT_TRUE(BitwiseEqual(last_answers[r].predictions,
                             TapeForward(*snapshot->model, requests[r].inputs, adjacency)))
        << "reader " << r << " version " << version;
  }
  EXPECT_EQ(service.hub().swap_count(), static_cast<int64_t>(published.size()));
  EXPECT_EQ(service.hub().Current()->version, static_cast<int64_t>(published.size()));
  EXPECT_GE(service.served_queries(), kReaders * kQueriesPerReader - failures.load());
}

TEST_F(ServeTrainerTest, HotSwapReusesPlanAndStaysBitwise) {
  data::StDataset dataset = MakeDataset();
  ServiceConfig config;
  config.model = TinyConfig(kNodes);
  config.executor = exec::ExecutorMode::kPlan;
  ForecastService plan_service(config, generator_->network(), normalizer_);
  config.executor = exec::ExecutorMode::kTape;
  ForecastService tape_service(config, generator_->network(), normalizer_);

  core::UrclTrainer trainer(config.model, generator_->network());
  std::vector<checkpoint::Container> published;
  trainer.SetSnapshotSink([&](const checkpoint::Container& c) { published.push_back(c); },
                          /*publish_every_steps=*/1);
  trainer.TrainStage(dataset, 1);
  ASSERT_GE(published.size(), 4u);

  auto plan_sink = plan_service.SnapshotSink();
  auto tape_sink = tape_service.SnapshotSink();
  obs::FlightRecorder::Get().Clear();
  core::PredictRequest request;
  Rng rng(17);
  request.inputs = Tensor::RandomUniform(Shape{2, 12, kNodes, 2}, rng, 0.0f, 1.0f);

  // Answers `request` on both services, which must serve the same version
  // with byte-identical forecasts; the plan service answers from its one
  // plan after the very first (capturing) query.
  int queries = 0;
  const auto check_answers = [&](int64_t expected_version, const std::string& where) {
    core::PredictResponse plan_response;
    core::PredictResponse tape_response;
    ASSERT_TRUE(plan_service.Predict(request, &plan_response).ok()) << where;
    ASSERT_TRUE(tape_service.Predict(request, &tape_response).ok()) << where;
    EXPECT_EQ(plan_response.model_version, expected_version) << where;
    EXPECT_EQ(tape_response.model_version, expected_version) << where;
    const bool capturing = queries++ == 0;
    EXPECT_EQ(plan_response.executor,
              capturing ? core::AnswerExecutor::kTape : core::AnswerExecutor::kPlan)
        << where;
    EXPECT_EQ(tape_response.executor, core::AnswerExecutor::kTape) << where;
    EXPECT_TRUE(BitwiseEqual(plan_response.predictions, tape_response.predictions)) << where;
    EXPECT_EQ(plan_service.plan_compiles(), 1) << where;
  };

  // Hot-swaps rebind the new weights into the same plan: nothing recompiles.
  for (size_t i = 0; i < published.size(); ++i) {
    plan_sink(published[i]);
    tape_sink(published[i]);
    const int64_t version = static_cast<int64_t>(i) + 1;
    check_answers(version, "swap " + std::to_string(i));
    check_answers(version, "swap " + std::to_string(i) + " repeat");
  }
  // So does a rollback to the previous version.
  ASSERT_NE(plan_service.hub().RollBack(), nullptr);
  ASSERT_NE(tape_service.hub().RollBack(), nullptr);
  check_answers(static_cast<int64_t>(published.size()) - 1, "rollback");

  EXPECT_GE(plan_service.hub().swap_count(), 3);
  EXPECT_EQ(plan_service.hub().rollback_count(), 1);
  EXPECT_EQ(tape_service.plan_compiles(), 0);

  // The one capture is flight-recorded with the version that made it.
  int compile_events = 0;
  for (const obs::FlightEvent& event : obs::FlightRecorder::Get().Snapshot()) {
    if (event.type != obs::FlightEventType::kPlanCompile) continue;
    ++compile_events;
    EXPECT_EQ(std::string(event.detail).rfind("serve: ", 0), 0u) << event.detail;
    EXPECT_EQ(event.a, 1) << "snapshot version operand";
  }
  EXPECT_EQ(compile_events, 1);
}

TEST(ServiceConfigTest, ValidateFlagsBadFields) {
  ServiceConfig config;
  config.model = TinyConfig(4);
  EXPECT_TRUE(config.Validate().empty());

  config.max_batch = 0;
  config.queue_depth = 0;
  const std::vector<std::string> errors = config.Validate();
  EXPECT_EQ(errors.size(), 2u);

  ServiceConfig bad_model;
  bad_model.model = TinyConfig(4);
  bad_model.model.encoder.num_nodes = 0;
  EXPECT_FALSE(bad_model.Validate().empty());
}

}  // namespace
}  // namespace serve
}  // namespace urcl
