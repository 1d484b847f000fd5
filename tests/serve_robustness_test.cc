// Serving failure-model tests (ctest labels `serving` + `robustness`,
// DESIGN.md §11): corrupt snapshot containers are quarantined with distinct
// diagnostics and zero effect on the live version; non-finite weights and
// explosive canaries never go live; an error spike on a freshly swapped
// version rolls the service back to last-good; degraded mode answers from the
// fallback baseline instead of failing closed; deadline-aware admission sheds
// unmeetable queries with a typed status.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/container.h"
#include "obs/flight_recorder.h"
#include "core/urcl.h"
#include "data/synthetic.h"
#include "graph/generator.h"
#include "serve/admission.h"
#include "serve/service.h"
#include "serve/snapshot.h"

namespace urcl {
namespace serve {
namespace {

core::UrclConfig TinyConfig(int64_t nodes, int64_t input_steps = 12) {
  core::UrclConfig config;
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

// A copy of `container` whose "model" section holds the same architecture
// with every parameter element overwritten by `value`.
checkpoint::Container PoisonWeights(const checkpoint::Container& container,
                                    const core::UrclConfig& config, float value) {
  std::shared_ptr<const ModelSnapshot> snapshot;
  const Status status = ParseModelSnapshot(container, config, &snapshot);
  EXPECT_TRUE(status.ok()) << status.ToString();
  std::vector<Tensor> state = snapshot->model->StateDict();
  for (Tensor& tensor : state) {
    float* data = tensor.mutable_data();
    for (int64_t i = 0; i < tensor.NumElements(); ++i) data[i] = value;
  }
  checkpoint::Container poisoned;
  poisoned.Add("model", core::SerializeStateDict(state));
  poisoned.Add("serve_meta", *container.Find("serve_meta"));
  return poisoned;
}

class ServeRobustnessTest : public ::testing::Test {
 protected:
  static constexpr int64_t kNodes = 5;

  void SetUp() override {
    data::TrafficConfig traffic;
    traffic.num_nodes = kNodes;
    traffic.num_days = 2;
    traffic.steps_per_day = 60;
    traffic.channels = 2;
    generator_ = std::make_unique<data::SyntheticTraffic>(traffic);
    Tensor series = generator_->GenerateSeries();
    normalizer_ = data::MinMaxNormalizer::Fit(series);
    dataset_ = std::make_unique<data::StDataset>(normalizer_.Transform(series),
                                                 data::WindowConfig{12, 1, 0});
  }

  // Trains one stage and returns the trainer's publications (>= 1).
  std::vector<checkpoint::Container> TrainAndCollect(const core::UrclConfig& config,
                                                     int64_t stages = 1) {
    core::UrclTrainer trainer(config, generator_->network());
    std::vector<checkpoint::Container> published;
    trainer.SetSnapshotSink([&](const checkpoint::Container& c) { published.push_back(c); });
    for (int64_t s = 0; s < stages; ++s) {
      trainer.BeginStage(s);
      trainer.TrainStage(*dataset_, 1);
    }
    EXPECT_GE(published.size(), static_cast<size_t>(stages));
    return published;
  }

  core::PredictRequest MakeRequest(uint64_t seed = 5) {
    core::PredictRequest request;
    Rng rng(seed);
    request.inputs = Tensor::RandomUniform(Shape{1, 12, kNodes, 2}, rng, 0.0f, 1.0f);
    return request;
  }

  std::unique_ptr<data::SyntheticTraffic> generator_;
  data::MinMaxNormalizer normalizer_;
  std::unique_ptr<data::StDataset> dataset_;
};

TEST_F(ServeRobustnessTest, CorruptContainerBytesRejectedWithDistinctDiagnostics) {
  const core::UrclConfig config = TinyConfig(kNodes);
  const std::vector<checkpoint::Container> published = TrainAndCollect(config);
  const std::string bytes = published.back().SerializeToString();
  const Tensor probe = Tensor::Zeros(Shape{1, 12, kNodes, 2});
  const Tensor adjacency = generator_->network().AdjacencyMatrix();
  const AdmissionConfig admission;
  std::shared_ptr<const ModelSnapshot> out;

  // Truncated file: cut right after the magic, before the body is complete.
  const Status truncated = AdmitSnapshotBytes(bytes.substr(0, 10), config,
                                              admission, probe, adjacency, &out);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.code(), StatusCode::kDataLoss);
  EXPECT_NE(truncated.message().find("truncated"), std::string::npos) << truncated.ToString();

  // Bit-flipped payload: CRC catches a single flipped bit mid-body.
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x10;
  const Status crc = AdmitSnapshotBytes(flipped, config, admission, probe, adjacency, &out);
  ASSERT_FALSE(crc.ok());
  EXPECT_EQ(crc.code(), StatusCode::kDataLoss);
  EXPECT_NE(crc.message().find("CRC mismatch"), std::string::npos) << crc.ToString();

  // Wrong section count: a container missing serve_meta parses (its own CRCs
  // are fine) but fails the snapshot schema gate.
  checkpoint::Container missing_meta;
  missing_meta.Add("model", *published.back().Find("model"));
  const Status missing = AdmitSnapshotBytes(missing_meta.SerializeToString(), config,
                                            admission, probe, adjacency, &out);
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.message().find("missing the serve_meta section"), std::string::npos)
      << missing.ToString();

  // Version mismatch: an unknown serve_meta schema version is typed
  // kInvalidArgument (the bytes are intact; the producer is incompatible).
  std::string meta = *published.back().Find("serve_meta");
  meta[0] = 99;  // schema is a little-endian uint32 at offset 0
  checkpoint::Container wrong_schema;
  wrong_schema.Add("model", *published.back().Find("model"));
  wrong_schema.Add("serve_meta", meta);
  const Status schema = AdmitSnapshotBytes(wrong_schema.SerializeToString(), config,
                                           admission, probe, adjacency, &out);
  ASSERT_FALSE(schema.ok());
  EXPECT_EQ(schema.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(schema.message().find("unsupported serve_meta schema version"), std::string::npos)
      << schema.ToString();

  // Architecture mismatch: same bytes, different model config.
  core::UrclConfig other = config;
  other.encoder.num_layers = 3;
  const Status arch = AdmitSnapshotBytes(bytes, other, admission, probe, adjacency, &out);
  ASSERT_FALSE(arch.ok());
  EXPECT_EQ(arch.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(arch.message().find("architecture mismatch"), std::string::npos)
      << arch.ToString();

  // Width mismatch: same tensor count, different tensor shapes. Rejected as
  // typed kInvalidArgument instead of aborting in Variable::SetValue.
  core::UrclConfig wider = config;
  wider.encoder.hidden_channels = 8;
  const Status width = AdmitSnapshotBytes(bytes, wider, admission, probe, adjacency, &out);
  ASSERT_FALSE(width.ok());
  EXPECT_EQ(width.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(width.message().find("architecture mismatch"), std::string::npos)
      << width.ToString();

  // Malformed model sections under a valid CRC: cut in half, the first
  // tensor's magic flipped, and empty. Each is typed kDataLoss.
  const std::string& model = *published.back().Find("model");
  std::string bad_magic = model;
  bad_magic[sizeof(uint64_t)] ^= 0x01;  // first tensor's magic follows the count
  std::vector<std::string> model_messages;
  for (const std::string& section : {model.substr(0, model.size() / 2), bad_magic,
                                     std::string()}) {
    checkpoint::Container malformed;
    malformed.Add("model", section);
    malformed.Add("serve_meta", *published.back().Find("serve_meta"));
    const Status status = AdmitSnapshotBytes(malformed.SerializeToString(), config, admission,
                                             probe, adjacency, &out);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
    EXPECT_NE(status.message().find("model section"), std::string::npos) << status.ToString();
    model_messages.push_back(status.message());

    // A serving sink quarantines it instead of aborting.
    ServiceConfig service_config;
    service_config.model = config;
    ForecastService service(service_config, generator_->network(), normalizer_);
    service.SnapshotSink()(malformed);
    EXPECT_EQ(service.quarantined_snapshots(), 1);
    EXPECT_EQ(service.hub().Current(), nullptr);
  }

  // Four distinct diagnostics plus the truncation and the three malformed
  // model sections: no two alike.
  std::vector<std::string> messages = {truncated.message(), crc.message(),
                                       missing.message(), schema.message(),
                                       arch.message()};
  messages.insert(messages.end(), model_messages.begin(), model_messages.end());
  for (size_t i = 0; i < messages.size(); ++i) {
    for (size_t j = i + 1; j < messages.size(); ++j) {
      EXPECT_NE(messages[i], messages[j]) << "diagnostics " << i << " and " << j << " collide";
    }
  }
  EXPECT_EQ(out, nullptr);
}

TEST_F(ServeRobustnessTest, QuarantineLeavesLiveVersionUntouched) {
  ServiceConfig config;
  config.model = TinyConfig(kNodes);
  ForecastService service(config, generator_->network(), normalizer_);
  const std::vector<checkpoint::Container> published = TrainAndCollect(config.model);

  auto sink = service.SnapshotSink();
  sink(published.back());
  ASSERT_NE(service.hub().Current(), nullptr);
  const int64_t live = service.hub().Current()->version;
  EXPECT_EQ(service.quarantined_snapshots(), 0);

  // A parade of bad publishes: schema damage, missing sections, NaN weights,
  // explosive-but-finite weights (caught by the canary). None may swap.
  checkpoint::Container no_meta;
  no_meta.Add("model", *published.back().Find("model"));
  sink(no_meta);
  sink(checkpoint::Container());  // empty: no sections at all
  sink(PoisonWeights(published.back(), config.model,
                     std::numeric_limits<float>::quiet_NaN()));
  sink(PoisonWeights(published.back(), config.model, 1e30f));

  EXPECT_EQ(service.quarantined_snapshots(), 4);
  ASSERT_NE(service.hub().Current(), nullptr);
  EXPECT_EQ(service.hub().Current()->version, live);
  EXPECT_EQ(service.hub().rollback_count(), 0);

  // The incumbent still answers.
  core::PredictRequest request = MakeRequest();
  core::PredictResponse response;
  ASSERT_TRUE(service.Predict(request, &response).ok());
  EXPECT_EQ(response.model_version, live);
  EXPECT_FALSE(response.degraded);
}

// A snapshot from a trainer of another width has the server's tensor count
// but not its shapes: the sink quarantines it and the incumbent keeps serving.
TEST_F(ServeRobustnessTest, WidthMismatchedPublishIsQuarantined) {
  ServiceConfig config;
  config.model = TinyConfig(kNodes);
  ForecastService service(config, generator_->network(), normalizer_);
  auto sink = service.SnapshotSink();
  sink(TrainAndCollect(config.model).back());
  const std::shared_ptr<const ModelSnapshot> incumbent = service.hub().Current();
  ASSERT_NE(incumbent, nullptr);
  const int64_t live = incumbent->version;

  core::UrclConfig wider = config.model;
  wider.encoder.hidden_channels = 8;
  sink(TrainAndCollect(wider).back());

  EXPECT_EQ(service.quarantined_snapshots(), 1);
  EXPECT_EQ(service.hub().Current(), incumbent);
  core::PredictRequest request = MakeRequest();
  core::PredictResponse response;
  ASSERT_TRUE(service.Predict(request, &response).ok());
  EXPECT_EQ(response.model_version, live);
  EXPECT_FALSE(response.degraded);
}

TEST_F(ServeRobustnessTest, ErrorSpikeRollsBackToLastGoodVersion) {
  ServiceConfig config;
  config.model = TinyConfig(kNodes);
  config.admission.run_canary = false;  // let the explosive version go live
  config.health.error_window = 16;
  config.health.rollback_errors = 2;
  ForecastService service(config, generator_->network(), normalizer_);
  // Two stages so the good and the poisoned publication carry distinct
  // version stamps (the rollback must demonstrably change versions).
  const std::vector<checkpoint::Container> published = TrainAndCollect(config.model, 2);

  auto sink = service.SnapshotSink();
  sink(published.front());
  ASSERT_NE(service.hub().Current(), nullptr);
  const int64_t good = service.hub().Current()->version;

  // Finite-but-explosive weights pass the weight scan; with the canary off
  // they swap in and clients see non-finite forecasts.
  sink(PoisonWeights(published.back(), config.model, 1e30f));
  ASSERT_NE(service.hub().Current(), nullptr);
  ASSERT_NE(service.hub().Current()->version, good);
  EXPECT_EQ(service.quarantined_snapshots(), 0);

  core::PredictRequest request = MakeRequest();
  core::PredictResponse response;
  int64_t data_loss = 0;
  for (int i = 0; i < 8 && service.rollback_count() == 0; ++i) {
    const Status status = service.Predict(request, &response);
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
      // The invariant: the quarantined (non-finite) forecast never reaches
      // the client — whatever is left in the response is finite.
      EXPECT_TRUE(response.predictions.AllFinite());
      ++data_loss;
    }
  }
  EXPECT_GE(data_loss, config.health.rollback_errors);
  EXPECT_EQ(service.rollback_count(), 1);
  EXPECT_GE(service.nonfinite_outputs(), config.health.rollback_errors);

  // Rolled back to last-good; the service recovers HEALTHY and serves.
  ASSERT_NE(service.hub().Current(), nullptr);
  EXPECT_EQ(service.hub().Current()->version, good);
  EXPECT_EQ(service.health_state(), HealthState::kHealthy);
  ASSERT_TRUE(service.Predict(request, &response).ok());
  EXPECT_EQ(response.model_version, good);
  EXPECT_FALSE(response.degraded);
  EXPECT_TRUE(response.predictions.AllFinite());
}

// DESIGN.md §13 acceptance: a rollback auto-dumps the flight recorder as
// JSONL, and the dump reconstructs the incident — poisoned version swapped
// in, its forecasts quarantined (tagged with the caller's trace ID), service
// rolled back — in seq order, readable by `urcl_blackbox`.
TEST_F(ServeRobustnessTest, RollbackAutoDumpsFlightRecorderJsonl) {
  auto& recorder = obs::FlightRecorder::Get();
  recorder.Clear();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "urcl_blackbox_rollback_test").string();
  std::filesystem::create_directories(dir);
  const std::string dump_path = dir + "/urcl_blackbox.rollback.jsonl";
  std::filesystem::remove(dump_path);
  recorder.SetDumpDir(dir);

  ServiceConfig config;
  config.model = TinyConfig(kNodes);
  config.admission.run_canary = false;
  config.health.error_window = 16;
  config.health.rollback_errors = 2;
  ForecastService service(config, generator_->network(), normalizer_);
  const std::vector<checkpoint::Container> published = TrainAndCollect(config.model, 2);

  auto sink = service.SnapshotSink();
  sink(published.front());
  sink(PoisonWeights(published.back(), config.model, 1e30f));

  core::PredictRequest request = MakeRequest();
  request.trace_id = 0x5eedf00dull;  // caller-supplied; must appear in the dump
  core::PredictResponse response;
  for (int i = 0; i < 8 && service.rollback_count() == 0; ++i) {
    const Status status = service.Predict(request, &response);
    (void)status;  // kDataLoss while the poisoned version serves; see above
  }
  ASSERT_EQ(service.rollback_count(), 1);

  ASSERT_TRUE(std::filesystem::exists(dump_path)) << dump_path;
  std::ifstream in(dump_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  recorder.Clear();

  const size_t swap = text.find("\"type\":\"hot_swap\"");
  const size_t quarantine = text.find("\"type\":\"nonfinite_quarantine\"");
  const size_t rollback = text.find("\"type\":\"rollback\"");
  ASSERT_NE(swap, std::string::npos) << text;
  ASSERT_NE(quarantine, std::string::npos) << text;
  ASSERT_NE(rollback, std::string::npos) << text;
  // Causal order survives the lock-striped ring: the poisoned swap precedes
  // the first quarantine, which precedes the rollback.
  EXPECT_LT(swap, quarantine);
  EXPECT_LT(quarantine, rollback);
  // The quarantine events were recorded inside the request's trace flow.
  EXPECT_NE(text.find("\"trace_id\":\"0x5eedf00d\""), std::string::npos) << text;
}

TEST_F(ServeRobustnessTest, ErrorSpikeWithNoHistoryDegradesToFallback) {
  ServiceConfig config;
  config.model = TinyConfig(kNodes);
  config.admission.run_canary = false;
  config.history_depth = 0;  // rollback disabled
  config.health.error_window = 16;
  config.health.rollback_errors = 2;
  ForecastService service(config, generator_->network(), normalizer_);
  const std::vector<checkpoint::Container> published = TrainAndCollect(config.model);

  auto sink = service.SnapshotSink();
  sink(PoisonWeights(published.back(), config.model, 1e30f));  // only version, bad
  ASSERT_NE(service.hub().Current(), nullptr);

  core::PredictRequest request = MakeRequest();
  core::PredictResponse response;
  for (int i = 0; i < 8 && service.health_state() == HealthState::kHealthy; ++i) {
    const Status status = service.Predict(request, &response);
    if (!status.ok()) EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  }
  EXPECT_EQ(service.rollback_count(), 0);
  EXPECT_EQ(service.health_state(), HealthState::kDegraded);

  // Degraded mode answers from the fallback baseline instead of failing.
  ASSERT_TRUE(service.Predict(request, &response).ok());
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.model_version, 0);
  EXPECT_TRUE(response.predictions.AllFinite());
  EXPECT_GT(service.degraded_queries(), 0);

  // A good publish heals the service: model path resumes.
  sink(published.back());
  EXPECT_EQ(service.health_state(), HealthState::kHealthy);
  ASSERT_TRUE(service.Predict(request, &response).ok());
  EXPECT_FALSE(response.degraded);
}

TEST_F(ServeRobustnessTest, StalenessWatchdogDegradesAndRecovers) {
  ServiceConfig config;
  config.model = TinyConfig(kNodes);
  config.health.staleness_ns = 2 * 1000 * 1000;  // 2ms
  ForecastService service(config, generator_->network(), normalizer_);
  const std::vector<checkpoint::Container> published = TrainAndCollect(config.model);
  service.SnapshotSink()(published.back());

  Rng rng(11);
  for (int64_t t = 0; t < 12; ++t) {
    service.IngestTick(Tensor::RandomUniform(Shape{kNodes, 2}, rng, 0.0f, 50.0f));
  }
  core::PredictResponse response;
  ASSERT_TRUE(service.Forecast(0, &response).ok());
  EXPECT_FALSE(response.degraded);
  EXPECT_FALSE(response.stale);

  // Stall the stream past the watchdog: the service degrades, answers come
  // from the fallback and are flagged stale.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(service.health_state(), HealthState::kDegraded);
  ASSERT_TRUE(service.Forecast(0, &response).ok());
  EXPECT_TRUE(response.degraded);
  EXPECT_TRUE(response.stale);

  // One fresh tick heals it.
  service.IngestTick(Tensor::RandomUniform(Shape{kNodes, 2}, rng, 0.0f, 50.0f));
  EXPECT_EQ(service.health_state(), HealthState::kHealthy);
  ASSERT_TRUE(service.Forecast(0, &response).ok());
  EXPECT_FALSE(response.degraded);
  EXPECT_FALSE(response.stale);
}

TEST_F(ServeRobustnessTest, DeadlineAdmissionShedsUnmeetableQueries) {
  ServiceConfig config;
  config.model = TinyConfig(kNodes);
  ForecastService service(config, generator_->network(), normalizer_);
  const std::vector<checkpoint::Container> published = TrainAndCollect(config.model);
  service.SnapshotSink()(published.back());

  // Prime the latency estimate with a few served queries.
  core::PredictRequest request = MakeRequest();
  core::PredictResponse response;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(service.Predict(request, &response).ok());

  // A 1ns budget is unmeetable: shed up front with the typed status.
  core::PredictRequest rushed = MakeRequest();
  rushed.deadline_ns = 1;
  const Status shed = service.Predict(rushed, &response);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.deadline_shed(), 1);

  // A generous budget is admitted; 0 means no deadline at all.
  core::PredictRequest relaxed = MakeRequest();
  relaxed.deadline_ns = 30LL * 1000 * 1000 * 1000;
  EXPECT_TRUE(service.Predict(relaxed, &response).ok());
  EXPECT_TRUE(service.Predict(request, &response).ok());
  EXPECT_EQ(service.deadline_shed(), 1);
}

TEST_F(ServeRobustnessTest, TypedStatusesForBadInputAndLameDuck) {
  ServiceConfig config;
  config.model = TinyConfig(kNodes);
  ForecastService service(config, generator_->network(), normalizer_);
  const std::vector<checkpoint::Container> published = TrainAndCollect(config.model);

  core::PredictRequest request = MakeRequest();
  core::PredictResponse response;

  // Cold start fails closed with a precondition error, not degraded output.
  const Status cold = service.Predict(request, &response);
  ASSERT_FALSE(cold.ok());
  EXPECT_EQ(cold.code(), StatusCode::kFailedPrecondition);

  service.SnapshotSink()(published.back());

  // Client-side NaN is the client's fault: kInvalidArgument, and it does not
  // count against the live version's error window.
  core::PredictRequest poisoned = MakeRequest();
  poisoned.inputs.FlatSet(3, std::numeric_limits<float>::quiet_NaN());
  const Status bad_input = service.Predict(poisoned, &response);
  ASSERT_FALSE(bad_input.ok());
  EXPECT_EQ(bad_input.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.health().window_errors(), 0);
  EXPECT_EQ(service.nonfinite_outputs(), 0);

  // An empty batch, or a window length, node count or channel count other
  // than the model's, is the client's fault too, not an abort in the encoder.
  for (const Shape& shape : {Shape{0, 12, kNodes, 2}, Shape{1, 11, kNodes, 2},
                             Shape{1, 12, kNodes - 1, 2}, Shape{1, 12, kNodes, 3}}) {
    core::PredictRequest misshaped;
    misshaped.inputs = Tensor::Zeros(shape);
    const Status status = service.Predict(misshaped, &response);
    ASSERT_FALSE(status.ok()) << shape.ToString();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  }
  EXPECT_EQ(service.health().window_errors(), 0);

  // Draining: every query is shed with kUnavailable, terminally.
  service.EnterLameDuck();
  EXPECT_EQ(service.health_state(), HealthState::kLameDuck);
  const Status drained = service.Predict(request, &response);
  ASSERT_FALSE(drained.ok());
  EXPECT_EQ(drained.code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace serve
}  // namespace urcl
