// Quickstart: train URCL on a small synthetic traffic stream and watch it
// stay accurate across concept drift.
//
//   ./quickstart [--nodes 16] [--days 12] [--epochs 4] [--seed 7]
//               [--checkpoint-dir DIR] [--checkpoint-every N]
//               [--checkpoint-retention K] [--log-jsonl FILE]
//               [--metrics-out FILE] [--trace-out FILE] [--profile-out FILE]
//
// Observability: --metrics-out writes a Prometheus text snapshot,
// --trace-out a Chrome trace_event JSON (open in Perfetto / chrome://tracing)
// and --profile-out a per-op autograd profile; URCL_OBS=1 enables all three
// subsystems without file output. --log-jsonl appends one structured record
// per trained epoch (stage, loss, stage-end eval metrics, wall time).
//
// Walks through the full pipeline: generate a sensor network + streaming
// traffic data, normalize to [0, 1], split into a base set and four
// incremental sets, run the replay-based continual protocol, and report
// MAE / RMSE per stage in real units (mph).
//
// Crash safety: with --checkpoint-dir set, the full training state (model,
// Adam moments, replay buffer, RNG streams, progress cursor) is checkpointed
// every N steps (and at stage boundaries) into a rotated set of files; on
// startup the newest valid checkpoint is restored and training resumes
// exactly where it stopped. Fault injection (URCL_FAULT env var, see
// common/fault_injector.h) exercises both paths.
#include <cstdio>
#include <fstream>

#include "common/fault_injector.h"
#include "common/flags.h"
#include "runtime/runtime_flags.h"
#include "common/table_printer.h"
#include "core/strategies.h"
#include "core/urcl.h"
#include "data/presets.h"
#include "data/stream.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "serve/service.h"
#include "tensor/tensor_ops.h"

using namespace urcl;

namespace {

// Writes the observability outputs configured via --metrics-out/--trace-out/
// --profile-out (if any) and reports where they went.
void FlushObservability() {
  std::vector<std::string> errors;
  for (const std::string& path : obs::WriteConfiguredOutputs(&errors)) {
    std::printf("Wrote %s\n", path.c_str());
  }
  for (const std::string& error : errors) std::fprintf(stderr, "[obs] %s\n", error.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  runtime::ApplyRuntimeFlags(flags);
  const int64_t nodes = flags.GetInt("nodes", 16);
  const int64_t days = flags.GetInt("days", 12);
  const int64_t epochs = flags.GetInt("epochs", 4);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const std::string checkpoint_dir = flags.GetString("checkpoint-dir", "");
  const int64_t checkpoint_every = flags.GetInt("checkpoint-every", 25);
  const int64_t checkpoint_retention = flags.GetInt("checkpoint-retention", 3);
  const int64_t max_batch = flags.GetInt("max-batch", 16);
  const int64_t queue_depth = flags.GetInt("queue-depth", 64);
  const std::string log_jsonl_path = flags.GetString("log-jsonl", "");
  flags.ExitOnUnreadFlags();

  // 1. Synthetic METR-LA-like stream (speed prediction, 15-min interval).
  const data::DatasetPreset preset = data::MetrLaPreset();
  data::SyntheticTraffic generator(preset.MakeTrafficConfig(nodes, days, seed));
  const Tensor raw_series = generator.GenerateSeries();
  std::printf("Generated %s-like stream: %lld steps x %lld sensors x %lld channels\n",
              preset.name.c_str(), static_cast<long long>(raw_series.dim(0)),
              static_cast<long long>(raw_series.dim(1)),
              static_cast<long long>(raw_series.dim(2)));

  // 2. Normalize into [0, 1] (the paper's setting) and window into samples.
  const data::MinMaxNormalizer normalizer = data::MinMaxNormalizer::Fit(raw_series);
  data::StDataset dataset(normalizer.Transform(raw_series), preset.MakeWindowConfig());

  // 3. Base set + 4 incremental sets, each with train/val/test.
  data::StreamSplitter stream(dataset, data::StreamConfig{});

  // 4. Configure URCL (GraphWaveNet backbone, replay + RMIR + STMixup +
  //    STSimSiam with spatio-temporal augmentation). The flags route through
  //    serve::ServiceConfig so training and the serving demo below share one
  //    validated configuration (Validate() reports every bad field up front).
  serve::ServiceConfig service_config;
  core::UrclConfig& config = service_config.model;
  config.encoder.num_nodes = nodes;
  config.encoder.in_channels = preset.channels;
  config.encoder.input_steps = preset.input_steps;
  // Short-budget setting: keep the contrastive loss secondary (the paper's
  // weight of 1.0 assumes 100 epochs per set; see DESIGN.md).
  config.ssl_weight = 0.05f;
  config.seed = seed;
  service_config.max_batch = max_batch;
  service_config.queue_depth = queue_depth;
  const std::vector<std::string> config_errors = service_config.Validate();
  if (!config_errors.empty()) {
    for (const std::string& error : config_errors) {
      std::fprintf(stderr, "invalid flag combination: %s\n", error.c_str());
    }
    return 1;
  }
  core::UrclTrainer urcl(config, generator.network());

  // The serving layer rides along: every stage end publishes an immutable
  // weight snapshot into the service, which answers live forecasts below.
  serve::ForecastService service(service_config, generator.network(), normalizer);
  urcl.SetSnapshotSink(service.SnapshotSink());

  // 4b. Crash-safe checkpointing: restore the newest valid checkpoint (if
  //     any) and write a new one every N steps while training.
  if (!checkpoint_dir.empty()) {
    core::CheckpointConfig ckpt;
    ckpt.dir = checkpoint_dir;
    ckpt.every_steps = checkpoint_every;
    ckpt.retention = checkpoint_retention;
    urcl.EnableCheckpointing(ckpt);
    std::string diagnostics;
    const Status restored = urcl.RestoreFromCheckpointDir(&diagnostics);
    if (!diagnostics.empty()) std::fprintf(stderr, "%s", diagnostics.c_str());
    if (restored.ok()) {
      std::printf("Resumed from checkpoint in %s (next stage %lld)\n", checkpoint_dir.c_str(),
                  static_cast<long long>(urcl.ResumeStageIndex()));
    } else {
      std::printf("Starting fresh (%s)\n", restored.message().c_str());
    }
  }

  // 5. Run the continual protocol and print per-stage accuracy.
  core::ProtocolOptions protocol;
  protocol.epochs_per_stage = epochs;

  // Structured JSONL training log: one record per trained epoch with the
  // stage-end evaluation snapshot and wall-time breakdown.
  std::ofstream log_jsonl;
  if (!log_jsonl_path.empty()) {
    log_jsonl.open(log_jsonl_path, std::ios::trunc);
    if (!log_jsonl) {
      std::fprintf(stderr, "cannot open --log-jsonl file %s\n", log_jsonl_path.c_str());
      return 1;
    }
    protocol.epoch_log = [&log_jsonl](int64_t stage_index, int64_t epoch, float loss,
                                      const core::StageResult& stage) {
      log_jsonl << "{\"stage\":" << obs::JsonString(stage.stage_name)
                << ",\"stage_index\":" << stage_index << ",\"epoch\":" << epoch
                << ",\"train_loss\":" << obs::JsonNumber(loss)
                << ",\"mae\":" << obs::JsonNumber(stage.metrics.mae)
                << ",\"rmse\":" << obs::JsonNumber(stage.metrics.rmse)
                << ",\"train_seconds\":" << obs::JsonNumber(stage.train_seconds)
                << ",\"seconds_per_epoch\":" << obs::JsonNumber(stage.train_seconds_per_epoch)
                << ",\"infer_seconds_per_observation\":"
                << obs::JsonNumber(stage.infer_seconds_per_observation) << "}\n";
    };
  }

  const std::vector<core::StageResult> results = core::RunContinualProtocol(
      urcl, stream, normalizer, preset.MakeWindowConfig().target_channel, protocol);
  if (log_jsonl.is_open()) {
    log_jsonl.flush();
    std::printf("Wrote %s\n", log_jsonl_path.c_str());
  }

  TablePrinter table({"Stage", "MAE (mph)", "RMSE (mph)", "train s", "infer ms/obs"});
  for (const core::StageResult& r : results) {
    table.AddRow({r.stage_name, TablePrinter::Num(r.metrics.mae),
                  TablePrinter::Num(r.metrics.rmse), TablePrinter::Num(r.train_seconds, 1),
                  TablePrinter::Num(1e3 * r.infer_seconds_per_observation, 2)});
  }
  table.Print();
  std::printf("\nReplay buffer: %lld items (%lld evictions)\n",
              static_cast<long long>(urcl.buffer().size()),
              static_cast<long long>(urcl.buffer().evictions()));

  // 6. Serving demo: the stage-end snapshots were hot-swapped into the
  //    service during training; feed it the last raw input window and ask
  //    for a one-step-ahead forecast (answered by a compiled plan bound to
  //    the live snapshot's weights, stamped with the version/stage that
  //    served it).
  if (service.hub().Current() != nullptr) {
    for (int64_t t = raw_series.dim(0) - preset.input_steps; t < raw_series.dim(0); ++t) {
      service.IngestTick(ops::Slice(raw_series, {t, 0, 0}, {1, nodes, raw_series.dim(2)})
                             .Reshape(Shape{nodes, raw_series.dim(2)}));
    }
    core::PredictResponse forecast;
    const Status served = service.Forecast(/*horizon=*/1, &forecast);
    if (served.ok()) {
      const float mean_norm = ops::Mean(forecast.predictions).Item();
      const float mph = normalizer.min(0) + mean_norm * (normalizer.max(0) - normalizer.min(0));
      std::printf("Serving demo: model v%lld (stage %lld) forecasts a mean speed of "
                  "%.1f mph for the next step.\n",
                  static_cast<long long>(forecast.model_version),
                  static_cast<long long>(forecast.stage), mph);
    } else {
      std::fprintf(stderr, "serving demo failed: %s\n", served.message().c_str());
    }
  }

  const fault::FaultInjector& injector = fault::FaultInjector::Instance();
  if (injector.enabled() || urcl.quarantined_batches() > 0) {
    const fault::FaultCounters& counters = injector.counters();
    std::printf("Faults: %lld NaN cells, %lld Inf cells, %lld dropped sensors, "
                "%lld duplicated batches, %lld kills -> %lld batches quarantined\n",
                static_cast<long long>(counters.nan_cells),
                static_cast<long long>(counters.inf_cells),
                static_cast<long long>(counters.dropped_sensors),
                static_cast<long long>(counters.duplicated_batches),
                static_cast<long long>(counters.kills),
                static_cast<long long>(urcl.quarantined_batches()));
  }
  FlushObservability();
  if (urcl.TrainingInterrupted()) {
    std::printf("Training interrupted by fault injection; rerun with the same "
                "--checkpoint-dir to resume.\n");
    return 2;
  }
  return 0;
}
