// Streaming deployment scenario on the urcl::serve layer.
//
// Ingestion and queries run against a serve::ForecastService while a
// background UrclTrainer trains through the stream's stages and publishes
// immutable weight snapshots. The service normalizes raw ticks into
// per-sensor rolling windows, answers forecasts through compiled plans bound
// to the live snapshot's weights (bitwise-equal to the training forward), and
// hot-swaps model versions mid-stream via an atomic shared_ptr exchange — the
// query loop never blocks on training and observes each swap through the
// version/stage stamps in its responses.
//
//   ./streaming_forecaster [--nodes 12] [--days 8] [--epochs 2]
//                          [--max-batch 16] [--queue-depth 64]
//                          [--log-jsonl FILE] [--metrics-out FILE]
//                          [--trace-out FILE] [--profile-out FILE]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common/flags.h"
#include "runtime/runtime_flags.h"
#include "common/table_printer.h"
#include "core/urcl.h"
#include "data/presets.h"
#include "data/synthetic.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "serve/service.h"
#include "tensor/tensor_ops.h"

using namespace urcl;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  runtime::ApplyRuntimeFlags(flags);
  const int64_t nodes = flags.GetInt("nodes", 12);
  const int64_t days = flags.GetInt("days", 8);
  const int64_t epochs = flags.GetInt("epochs", 2);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const int64_t max_batch = flags.GetInt("max-batch", 16);
  const int64_t queue_depth = flags.GetInt("queue-depth", 64);
  const std::string log_jsonl_path = flags.GetString("log-jsonl", "");
  flags.ExitOnUnreadFlags();

  // A stream with strong drift mid-way: the background trainer's later
  // stages adapt to the new regime and the swap is visible to the clients.
  const data::DatasetPreset preset = data::MetrLaPreset();
  data::TrafficConfig traffic = preset.MakeTrafficConfig(nodes, days, seed);
  traffic.abrupt_refresh_fraction = 0.9f;
  data::SyntheticTraffic generator(traffic);
  const Tensor raw = generator.GenerateSeries();
  const data::MinMaxNormalizer normalizer = data::MinMaxNormalizer::Fit(raw);
  const Tensor normalized = normalizer.Transform(raw);
  const data::WindowConfig window = preset.MakeWindowConfig();
  const int64_t steps = raw.dim(0);
  const int64_t channels = raw.dim(2);

  // Service + trainer share one ServiceConfig: the flags route through
  // serve::ServiceConfig::Validate() before anything is constructed.
  serve::ServiceConfig config;
  config.model.encoder.num_nodes = nodes;
  config.model.encoder.in_channels = preset.channels;
  config.model.encoder.input_steps = window.input_steps;
  config.model.encoder.hidden_channels = 8;
  config.model.encoder.latent_channels = 16;
  config.model.output_steps = window.output_steps;
  config.model.max_batches_per_epoch = 20;
  config.model.ssl_weight = 0.05f;
  config.model.seed = seed;
  config.max_batch = max_batch;
  config.queue_depth = queue_depth;
  const std::vector<std::string> errors = config.Validate();
  if (!errors.empty()) {
    for (const std::string& error : errors) {
      std::fprintf(stderr, "invalid flag combination: %s\n", error.c_str());
    }
    return 1;
  }
  serve::ForecastService service(config, generator.network(), normalizer);

  // Background training: first half of the stream is stage 0, second half
  // stage 1 (the drifted regime). Every stage end hot-swaps a snapshot.
  const Tensor first_half = ops::Slice(normalized, {0, 0, 0}, {steps / 2, nodes, channels});
  const Tensor second_half =
      ops::Slice(normalized, {steps / 2, 0, 0}, {steps - steps / 2, nodes, channels});
  data::StDataset stage0(first_half, window);
  data::StDataset stage1(second_half, window);
  core::UrclTrainer trainer(config.model, generator.network());
  trainer.SetSnapshotSink(service.SnapshotSink(), /*publish_every_steps=*/20);

  // Bootstrap: train the initial model on stage 0 in the foreground (a
  // deployment serves nothing until a first version exists), then train the
  // drifted stage 1 in the background while the stream is being served.
  std::printf("Training the initial model on the first half of the stream...\n");
  trainer.BeginStage(0);
  trainer.TrainStage(stage0, epochs);
  std::atomic<bool> trainer_done{false};
  std::thread trainer_thread([&] {
    trainer.BeginStage(1);
    trainer.TrainStage(stage1, epochs);
    trainer_done.store(true);
  });

  std::printf("Streaming %lld steps of %s-like data (%lld sensors) through "
              "serve::ForecastService while the background trainer hot-swaps "
              "model versions...\n\n",
              static_cast<long long>(steps), preset.name.c_str(),
              static_cast<long long>(nodes));

  // Structured JSONL log: one record per observed model version (the first
  // live model, then each hot-swap).
  std::ofstream log_jsonl;
  if (!log_jsonl_path.empty()) {
    log_jsonl.open(log_jsonl_path, std::ios::trunc);
    if (!log_jsonl) {
      std::fprintf(stderr, "cannot open --log-jsonl file %s\n", log_jsonl_path.c_str());
      return 1;
    }
  }

  // Tick ingestion + query loop: feed each raw observation to the service,
  // then ask for a one-step-ahead forecast and score it against the next
  // tick. Version stamps reveal every hot-swap as it reaches the clients.
  TablePrinter log({"Step", "Event", "Model", "Stage", "Live MAE so far (mph)"});
  const float speed_span = normalizer.max(0) - normalizer.min(0);
  double abs_error_sum = 0.0;
  int64_t scored = 0;
  int64_t served = 0;
  int64_t last_version = 0;
  bool pending = false;
  Tensor pending_prediction;  // [1, 1, N, 1], normalized
  auto note_swap = [&](const core::PredictResponse& response, int64_t step) {
    if (response.model_version == last_version) return;
    const char* event = last_version == 0 ? "first model live" : "hot-swap observed";
    const double live_mae =
        scored > 0 ? abs_error_sum / static_cast<double>(scored) * speed_span : 0.0;
    std::string model = "v";
    model += std::to_string(response.model_version);
    log.AddRow({std::to_string(step), event, model, std::to_string(response.stage),
                TablePrinter::Num(live_mae)});
    if (log_jsonl.is_open()) {
      log_jsonl << "{\"step\":" << step << ",\"event\":" << obs::JsonString(event)
                << ",\"model_version\":" << response.model_version
                << ",\"stage\":" << response.stage
                << ",\"live_mae\":" << obs::JsonNumber(live_mae) << "}\n";
    }
    last_version = response.model_version;
  };
  for (int64_t t = 0; t < steps; ++t) {
    const Tensor row =
        ops::Slice(raw, {t, 0, 0}, {1, nodes, channels}).Reshape(Shape{nodes, channels});
    if (pending) {
      // Score yesterday's forecast against today's truth (target channel 0).
      const Tensor truth = ops::Slice(normalized, {t, 0, 0}, {1, nodes, 1})
                               .Reshape(pending_prediction.shape());
      abs_error_sum += ops::Mean(ops::Abs(ops::Sub(pending_prediction, truth))).Item();
      ++scored;
      pending = false;
    }
    service.IngestTick(row);
    if (t < steps / 2) continue;  // stage-0 data: the model trained on it
    core::PredictResponse response;
    if (service.Forecast(/*horizon=*/1, &response).ok()) {
      pending_prediction = response.predictions;
      pending = true;
      ++served;
      note_swap(response, t);
    }
  }
  // The stream has ended but the stage-1 trainer may still be running: keep
  // serving the latest window until it finishes, so the final hot-swap is
  // observed by a live query rather than discovered after the fact.
  while (!trainer_done.load()) {
    core::PredictResponse response;
    if (service.Forecast(/*horizon=*/1, &response).ok()) {
      ++served;
      note_swap(response, steps);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  trainer_thread.join();
  // One last query after the trainer finished: the stage-end snapshot is
  // published just before the done flag, so this always lands on the final
  // version and records the swap.
  core::PredictResponse final_response;
  if (service.Forecast(/*horizon=*/1, &final_response).ok()) {
    ++served;
    note_swap(final_response, steps);
  }
  if (log_jsonl.is_open()) {
    log_jsonl.flush();
    std::printf("Wrote %s\n", log_jsonl_path.c_str());
  }
  log.Print();
  const double live_mae =
      scored > 0 ? abs_error_sum / static_cast<double>(scored) * speed_span : 0.0;
  std::printf("\n%lld forecasts served across %lld model versions (%lld snapshots "
              "published); final live MAE %.2f mph over %lld scored steps.\n",
              static_cast<long long>(served), static_cast<long long>(last_version),
              static_cast<long long>(trainer.snapshots_published()), live_mae,
              static_cast<long long>(scored));
  std::printf("\nThe query loop never blocks on training: the background trainer\n"
              "publishes immutable weight snapshots, the service swaps them in via\n"
              "an atomic pointer exchange, and each response's version/stage stamp\n"
              "shows which weights answered it.\n");
  std::vector<std::string> obs_errors;
  for (const std::string& path : obs::WriteConfiguredOutputs(&obs_errors)) {
    std::printf("Wrote %s\n", path.c_str());
  }
  for (const std::string& error : obs_errors) std::fprintf(stderr, "[obs] %s\n", error.c_str());
  return 0;
}
