#include "core/urcl.h"

#include "tensor/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>

#include "autograd/lint.h"
#include "autograd/ops.h"
#include "common/check.h"
#include "common/fault_injector.h"
#include "common/stopwatch.h"
#include "core/stmixup.h"
#include "nn/loss.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"

namespace urcl {
namespace core {

namespace ag = ::urcl::autograd;

namespace {

// Registry handles for the trainer's metrics, resolved once and gated on
// obs::MetricsEnabled() at every use site.
struct TrainerMetrics {
  obs::Counter& steps;
  obs::Counter& quarantined_input;
  obs::Counter& quarantined_loss;
  obs::Counter& quarantined_grad;
  obs::Gauge& last_loss;
  obs::Histogram& step_ns;
  obs::Counter& rmir_refreshes;
  obs::Histogram& rmir_interference;
  obs::Counter& checkpoint_writes;
  obs::Histogram& checkpoint_write_seconds;
};

TrainerMetrics& Metrics() {
  auto& registry = obs::MetricsRegistry::Get();
  static TrainerMetrics* metrics = new TrainerMetrics{
      registry.GetCounter("urcl.trainer.steps"),
      registry.GetCounter("urcl.trainer.quarantined_input"),
      registry.GetCounter("urcl.trainer.quarantined_loss"),
      registry.GetCounter("urcl.trainer.quarantined_grad"),
      registry.GetGauge("urcl.trainer.last_loss"),
      registry.GetHistogram("urcl.trainer.step_ns",
                            obs::ExponentialBuckets(65536, 4, 12)),
      registry.GetCounter("urcl.rmir.refreshes"),
      registry.GetHistogram("urcl.rmir.interference",
                            {-1.0, -0.1, -0.01, 0.0, 0.01, 0.1, 1.0, 10.0}),
      registry.GetCounter("urcl.checkpoint.writes"),
      registry.GetHistogram("urcl.checkpoint.write_seconds",
                            obs::ExponentialBuckets(1e-4, 4, 10)),
  };
  return *metrics;
}

// `config`, once it has passed Validate(): runs before any parameter is drawn.
const UrclConfig& Validated(const UrclConfig& config) {
  const std::vector<std::string> errors = config.Validate();
  URCL_CHECK(errors.empty()) << "invalid UrclConfig: " << FormatConfigErrors(errors);
  return config;
}

}  // namespace

std::vector<std::string> UrclConfig::Validate() const {
  std::vector<std::string> errors;
  for (const std::string& e : encoder.Validate()) errors.push_back("encoder: " + e);
  if (decoder_hidden <= 0) errors.push_back("decoder_hidden must be > 0");
  if (output_steps <= 0) errors.push_back("output_steps must be > 0");
  if (proj_hidden <= 0) errors.push_back("proj_hidden must be > 0");
  if (ssl_weight < 0.0f) errors.push_back("ssl_weight must be >= 0");
  if (batch_size <= 0) errors.push_back("batch_size must be > 0");
  if (max_batches_per_epoch < 0) {
    errors.push_back("max_batches_per_epoch must be >= 0 (0 uses every window)");
  }
  if (buffer_capacity <= 0) errors.push_back("buffer_capacity must be > 0");
  if (replay_sample_count <= 0) {
    errors.push_back("replay_sample_count must be > 0");
  } else if (replay_sample_count > buffer_capacity) {
    errors.push_back("replay_sample_count must not exceed buffer_capacity");
  }
  if (rmir_scan_size <= 0) errors.push_back("rmir_scan_size must be > 0");
  if (rmir_candidate_pool <= 0) errors.push_back("rmir_candidate_pool must be > 0");
  if (enable_mixup && mixup_alpha <= 0.0f) {
    errors.push_back("mixup_alpha must be > 0 when enable_mixup is set");
  }
  return errors;
}

UrclModel::UrclModel(const UrclConfig& config, Rng& rng)
    : Forecaster(MakeBackbone(Validated(config).backbone, config.encoder, rng),
                 config.decoder_hidden, config.output_steps, rng) {
  simsiam_ = std::make_unique<StSimSiam>(&encoder(), config.proj_hidden, kSslTemperature, rng);
  RegisterChild("simsiam", simsiam_.get());
}

UrclTrainer::UrclTrainer(const UrclConfig& config, const graph::SensorNetwork& network)
    : config_(config),
      rng_(config.seed),
      adjacency_(network.AdjacencyMatrix()),
      network_(network),
      buffer_(config.buffer_capacity, config.buffer_policy, config.seed + 17),
      rmir_sampler_(config.rmir_candidate_pool),
      // With SSL and augmentation both on, every step draws fresh augmented
      // views, so the train graph is not step-invariant: it runs on the tape.
      train_plans_("train", config.enable_ssl && config.enable_augmentation
                                ? exec::ExecutorMode::kTape
                                : config.executor),
      virtual_plans_("virtual", config.executor),
      per_item_plans_("per_item", config.executor) {
  URCL_CHECK_EQ(config.encoder.num_nodes, network.num_nodes())
      << "encoder config does not match the sensor network";
  model_ = std::make_unique<UrclModel>(config_, rng_);
  // Always scan for non-finite gradients/parameters: a poisoned batch that
  // slips past the input and loss guards skips the update instead of
  // corrupting the moments (the batch is quarantined by TrainStep).
  optimizer_ = std::make_unique<nn::Adam>(
      model_->Parameters(), nn::AdamConfig{.lr = kLearningRate, .check_finite = true});
  augmentations_ = augment::MakeDefaultAugmentations();
}

std::vector<float> UrclTrainer::PerItemLosses(const std::vector<int64_t>& indices) {
  const auto [inputs, targets] = buffer_.MakeBatch(indices);
  // RMIR scores the whole scan set twice per refresh, so this forward is the
  // hottest inference path in training.
  const exec::PlanRun run = per_item_plans_.Run(
      {inputs},
      [&inputs, this] {
        return model_->Forward(Variable(inputs, /*requires_grad=*/false), adjacency_);
      },
      /*with_backward=*/false, current_stage_, step_count_);
  // Per-item MAE: mean |pred - y| over all but the batch axis.
  const Tensor abs_err = ops::Abs(ops::Sub(run.value(), targets));
  const Tensor per_item = ops::Mean(abs_err, {1, 2, 3});
  std::vector<float> losses(static_cast<size_t>(per_item.NumElements()));
  for (int64_t i = 0; i < per_item.NumElements(); ++i)
    losses[static_cast<size_t>(i)] = per_item.FlatAt(i);
  return losses;
}

UrclTrainer::ReplayDraw UrclTrainer::DrawReplaySamples(const Tensor& current_inputs,
                                                       const Tensor& current_targets) {
  ReplayDraw draw;
  if (!config_.enable_replay || buffer_.size() < config_.replay_sample_count) return draw;
  URCL_TRACE_SCOPE("rmir_draw");

  std::vector<int64_t> selected;
  if (!config_.enable_rmir) {
    selected = random_sampler_.Sample(buffer_, config_.replay_sample_count, rng_);
  } else if (step_count_ % kRmirRefreshEvery == 0 || cached_selection_.empty()) {
    // 1. Score a random scan subset for interference: loss increase after a
    //    virtual gradient step on the incoming batch (Eq. 3).
    const std::vector<int64_t> scan = random_sampler_.Sample(
        buffer_, std::min(config_.rmir_scan_size, buffer_.size()), rng_);
    const std::vector<float> before = PerItemLosses(scan);

    // Virtual step: gradients from the incoming batch, SGD update, rollback.
    const std::vector<Variable> params = model_->Parameters();
    std::vector<Tensor> snapshot;
    snapshot.reserve(params.size());
    for (const Variable& p : params) snapshot.push_back(p.value().Clone());

    for (const Variable& p : params) p.ZeroGrad();
    virtual_plans_
        .Run({current_inputs, current_targets},
             [&] {
               Variable x(current_inputs, /*requires_grad=*/false);
               Variable y(current_targets, /*requires_grad=*/false);
               return nn::MaeLoss(model_->Forward(x, adjacency_), y);
             },
             /*with_backward=*/true, current_stage_, step_count_)
        .Backward();
    for (const Variable& p : params) {
      Tensor updated = p.value().Clone();
      Tensor grad = p.grad();
      grad.MulInPlace(-kRmirVirtualLr);
      updated.AddInPlace(grad);
      p.SetValue(updated);
    }
    const std::vector<float> after = PerItemLosses(scan);
    for (size_t i = 0; i < params.size(); ++i) params[i].SetValue(snapshot[i]);
    for (const Variable& p : params) p.ZeroGrad();

    if (obs::MetricsEnabled()) {
      TrainerMetrics& m = Metrics();
      m.rmir_refreshes.Add(1);
      for (size_t i = 0; i < scan.size(); ++i) {
        m.rmir_interference.Observe(static_cast<double>(after[i] - before[i]));
      }
    }

    // 2+3. Rank by interference, re-rank by Pearson similarity (Sec. IV-B1).
    std::vector<float> interference(static_cast<size_t>(buffer_.size()),
                                    -std::numeric_limits<float>::infinity());
    for (size_t i = 0; i < scan.size(); ++i) {
      interference[static_cast<size_t>(scan[i])] = after[i] - before[i];
    }
    selected = rmir_sampler_.Select(buffer_, current_inputs, interference,
                                    config_.replay_sample_count);
    cached_selection_ = selected;
  } else {
    selected = cached_selection_;
    // Cached indices may have been evicted since; clamp into range.
    for (int64_t& index : selected) index = std::min(index, buffer_.size() - 1);
  }

  if (selected.empty()) return draw;
  auto [inputs, targets] = buffer_.MakeBatch(selected);
  draw.inputs = std::move(inputs);
  draw.targets = std::move(targets);
  draw.valid = true;
  return draw;
}

Variable UrclTrainer::BuildTrainLoss(const Tensor& inputs, const Tensor& targets) {
  Variable x(inputs, /*requires_grad=*/false);
  Variable y(targets, /*requires_grad=*/false);
  Variable task_loss = nn::MaeLoss(model_->Forward(x, adjacency_), y);

  // STCRL branch (Sec. IV-C): two augmented views through STSimSiam.
  Variable total_loss = task_loss;
  if (config_.enable_ssl) {
    augment::AugmentedView view1{inputs, adjacency_};
    augment::AugmentedView view2{inputs, adjacency_};
    if (config_.enable_augmentation) {
      const auto [aug1, aug2] = augment::PickTwoDistinct(augmentations_, rng_);
      view1 = aug1->Apply(inputs, network_, rng_);
      view2 = aug2->Apply(inputs, network_, rng_);
    }
    Variable ssl_loss = model_->simsiam().Loss(view1, view2);
    total_loss = ag::Add(task_loss, ag::MulScalar(ssl_loss, config_.ssl_weight));  // Eq. 29
  }
  return total_loss;
}

std::optional<float> UrclTrainer::TrainStep(const Tensor& inputs, const Tensor& targets) {
  URCL_TRACE_SCOPE("train_step");
  const bool metrics = obs::MetricsEnabled();
  const int64_t step_start_ns = metrics ? MonotonicNowNs() : 0;

  // Quarantine gate 1: corrupted sensor readings (NaN/Inf cells, dropped
  // sensors) never reach the model or the replay buffer.
  if (!inputs.AllFinite() || !targets.AllFinite()) {
    ++quarantined_batches_;
    if (metrics) Metrics().quarantined_input.Add(1);
    obs::RecordFlightEvent(obs::FlightEventType::kNonFiniteQuarantine, current_stage_,
                           step_count_, "trainer: input");
    std::fprintf(stderr,
                 "[urcl] quarantined batch at stage %lld step %lld: non-finite input readings\n",
                 static_cast<long long>(current_stage_), static_cast<long long>(step_count_));
    return std::nullopt;
  }

  // Data integration (Eq. 2): RMIR retrieval + STMixup.
  const ReplayDraw draw = DrawReplaySamples(inputs, targets);
  MixupResult mixed;
  if (draw.valid && config_.enable_mixup) {
    mixed = StMixup(inputs, targets, draw.inputs, draw.targets, config_.mixup_alpha, rng_);
  } else if (draw.valid) {
    mixed = ConcatBatches(inputs, targets, draw.inputs, draw.targets);  // w/o_STU
  } else {
    mixed.inputs = inputs;
    mixed.targets = targets;
  }

  // Gradients from the previous step are cleared before the forward so a
  // compiled plan's backward accumulates into fresh storage each run (the
  // arena replay must repeat the measure run's acquisition sequence; see
  // exec/arena.h).
  optimizer_->ZeroGrad();

  // Prediction branch (Eq. 17, 28), compiled or on the tape.
  float loss_value = 0.0f;
  {
    exec::PlanRun run = [&] {
      URCL_TRACE_SCOPE("forward");
      return train_plans_.Run({mixed.inputs, mixed.targets},
                              [&] { return BuildTrainLoss(mixed.inputs, mixed.targets); },
                              /*with_backward=*/true, current_stage_, step_count_);
    }();
    loss_value = run.value().Item();

    // Quarantine gate 2: a diverged/overflowed loss is not backpropagated
    // (destroying the run aborts a replayed plan).
    if (!std::isfinite(loss_value)) {
      ++quarantined_batches_;
      if (metrics) Metrics().quarantined_loss.Add(1);
      obs::RecordFlightEvent(obs::FlightEventType::kNonFiniteQuarantine, current_stage_,
                             step_count_, "trainer: loss");
      std::fprintf(stderr,
                   "[urcl] quarantined batch at stage %lld step %lld: non-finite loss\n",
                   static_cast<long long>(current_stage_), static_cast<long long>(step_count_));
      return std::nullopt;
    }

    if (check::GraphChecksEnabled() && run.tape_root() != nullptr) {
      // URCL_CHECK env gate: full static lint of the recorded loss graph
      // before differentiating through it (autograd/lint.h). Zero cost when
      // disabled. Tape-only: a compiled plan was linted by its own AOT shape
      // inference at capture time.
      URCL_TRACE_SCOPE("graph_lint");
      autograd::CheckGraph(*run.tape_root());
    }
    {
      URCL_TRACE_SCOPE("backward");
      run.Backward();
    }
  }
  {
    URCL_TRACE_SCOPE("optimizer_step");
    optimizer_->ClipGradNorm(kGradClipNorm);
    optimizer_->Step();
  }

  // Quarantine gate 3: the optimizer's check_finite guard skipped the update
  // because a gradient overflowed (or flags a parameter that went non-finite
  // after the update). Name the offending parameter in the diagnostic.
  if (const std::optional<nn::NonFiniteReport>& report = optimizer_->last_step_report();
      report.has_value()) {
    ++quarantined_batches_;
    if (metrics) Metrics().quarantined_grad.Add(1);
    obs::RecordFlightEvent(obs::FlightEventType::kNonFiniteQuarantine, current_stage_,
                           step_count_, "trainer: grad");
    const std::vector<std::pair<std::string, Variable>> named = model_->NamedParameters();
    const bool in_range = report->param_index >= 0 &&
                          report->param_index < static_cast<int64_t>(named.size());
    std::fprintf(stderr,
                 "[urcl] quarantined batch at stage %lld step %lld: non-finite %s in "
                 "parameter '%s'\n",
                 static_cast<long long>(current_stage_), static_cast<long long>(step_count_),
                 report->kind == nn::NonFiniteReport::Kind::kGradient ? "gradient" : "value",
                 in_range ? named[static_cast<size_t>(report->param_index)].first.c_str() : "?");
    return std::nullopt;
  }

  // Store the raw (pre-mixup) observations in the replay buffer.
  if (config_.enable_replay) {
    const int64_t batch = inputs.dim(0);
    for (int64_t b = 0; b < batch; ++b) {
      replay::ReplayItem item;
      item.inputs = ops::Slice(inputs, {b, 0, 0, 0},
                               {1, inputs.dim(1), inputs.dim(2), inputs.dim(3)})
                        .Reshape(Shape{inputs.dim(1), inputs.dim(2), inputs.dim(3)});
      item.targets = ops::Slice(targets, {b, 0, 0, 0},
                                {1, targets.dim(1), targets.dim(2), targets.dim(3)})
                         .Reshape(Shape{targets.dim(1), targets.dim(2), targets.dim(3)});
      item.stage = current_stage_;
      buffer_.Add(std::move(item));
    }
  }

  ++step_count_;
  if (metrics) {
    TrainerMetrics& m = Metrics();
    m.steps.Add(1);
    m.last_loss.Set(loss_value);
    m.step_ns.Observe(static_cast<double>(MonotonicNowNs() - step_start_ns));
  }
  return loss_value;
}

std::vector<float> UrclTrainer::TrainStage(const data::StDataset& train, int64_t epochs) {
  URCL_CHECK_GT(epochs, 0);
  URCL_TRACE_SCOPE("train_stage", current_stage_);
  interrupted_ = false;
  fault::FaultInjector& injector = fault::FaultInjector::Instance();
  if (injector.AtKillPoint("stage_begin")) {
    interrupted_ = true;
    return {};
  }
  const int64_t num_samples = train.NumSamples();
  URCL_CHECK_GT(num_samples, 0) << "train split has no complete windows";

  const int64_t batch = config_.batch_size;
  const std::vector<int64_t> schedule =
      EpochSchedule(num_samples, batch, config_.max_batches_per_epoch);

  // Mid-stage resume: when the restored cursor points at this stage, pick up
  // at the saved epoch/batch position with the saved partial-epoch sums so
  // the epoch-mean losses reproduce the uninterrupted run exactly.
  int64_t start_epoch = 0;
  int64_t start_offset = 0;
  double resume_loss_sum = 0.0;
  int64_t resume_steps = 0;
  std::vector<float> epoch_losses;
  bool resuming = false;
  if (resume_pending_ && cursor_.stage == current_stage_) {
    start_epoch = cursor_.epoch;
    start_offset = cursor_.offset;
    resume_loss_sum = cursor_.epoch_loss_sum;
    resume_steps = cursor_.epoch_steps;
    epoch_losses = cursor_.epoch_losses;
    resuming = true;
    resume_pending_ = false;
  }
  cursor_.stage = current_stage_;

  const int64_t schedule_size = static_cast<int64_t>(schedule.size());
  for (int64_t epoch = start_epoch; epoch < epochs; ++epoch) {
    URCL_TRACE_SCOPE("epoch", epoch);
    const bool resumed_epoch = resuming && epoch == start_epoch;
    double loss_sum = resumed_epoch ? resume_loss_sum : 0.0;
    int64_t steps = resumed_epoch ? resume_steps : 0;
    for (int64_t start = resumed_epoch ? start_offset : 0; start < schedule_size;
         start += batch) {
      const int64_t count = std::min<int64_t>(batch, schedule_size - start);
      if (count < 2) break;  // GraphCL needs >= 2 samples; skip the remainder
      std::vector<int64_t> indices(schedule.begin() + start, schedule.begin() + start + count);
      const auto [inputs, targets] = train.MakeBatch(indices);
      // Input-fault family: a duplicated batch is fed through twice.
      const int64_t repeats = injector.NextBatchDuplicated() ? 2 : 1;
      for (int64_t rep = 0; rep < repeats; ++rep) {
        const std::optional<float> loss = TrainStep(inputs, targets);
        if (loss.has_value()) {
          loss_history_.push_back(*loss);
          loss_sum += *loss;
          ++steps;
        }
      }
      // Advance the cursor past this batch so a checkpoint taken here resumes
      // with the next one.
      cursor_.epoch = epoch;
      cursor_.offset = start + count;
      cursor_.epoch_loss_sum = loss_sum;
      cursor_.epoch_steps = steps;
      cursor_.epoch_losses = epoch_losses;
      if (snapshot_sink_ && publish_every_steps_ > 0 && step_count_ > 0 &&
          step_count_ % publish_every_steps_ == 0) {
        PublishSnapshot();
      }
      if (checkpoint_manager_ != nullptr && checkpoint_config_.every_steps > 0 &&
          step_count_ > 0 && step_count_ % checkpoint_config_.every_steps == 0) {
        const Status saved = SaveFullCheckpoint();
        if (!saved.ok()) {
          std::fprintf(stderr, "[urcl] periodic checkpoint failed: %s\n",
                       saved.message().c_str());
        } else if (injector.AtKillPoint("checkpoint_written")) {
          interrupted_ = true;
          return epoch_losses;
        }
      }
      if (injector.AtKillPoint("batch_done")) {
        interrupted_ = true;
        return epoch_losses;
      }
    }
    epoch_losses.push_back(steps > 0 ? static_cast<float>(loss_sum / steps) : 0.0f);
    cursor_.epoch = epoch + 1;
    cursor_.offset = 0;
    cursor_.epoch_loss_sum = 0.0;
    cursor_.epoch_steps = 0;
    cursor_.epoch_losses = epoch_losses;
  }

  // Stage complete: point the cursor at the next stage and checkpoint, so a
  // crash between stages costs nothing. Serving sinks get the stage's final
  // weights before the kill-point so a completed stage is always published.
  if (config_.enable_replay) buffer_.ExportComposition(current_stage_);
  PublishSnapshot();
  cursor_ = StageCursor{current_stage_ + 1, 0, 0, 0.0, 0, {}};
  if (checkpoint_manager_ != nullptr) {
    const Status saved = SaveFullCheckpoint();
    if (!saved.ok()) {
      std::fprintf(stderr, "[urcl] stage-end checkpoint failed: %s\n", saved.message().c_str());
    }
  }
  if (injector.AtKillPoint("stage_end")) interrupted_ = true;
  return epoch_losses;
}

namespace {

// Version of the trainer's section schema inside the checkpoint container
// (the container itself carries its own format version).
constexpr uint32_t kTrainerStateVersion = 1;

// Version of the "serve_meta" section's layout (SerializeServeMeta).
constexpr uint32_t kServeMetaVersion = 1;

void WriteFloatVector(std::ostream& out, const std::vector<float>& values) {
  io::WritePod(out, static_cast<uint64_t>(values.size()));
  for (const float v : values) io::WritePod(out, v);
}

// The "meta" section is short or damaged.
Status TruncatedMeta() { return Status::DataLoss("meta section is truncated"); }

Status ReadFloatVector(io::ByteReader& in, uint64_t max_count, const char* what,
                       std::vector<float>* out) {
  uint64_t count = 0;
  if (!in.Read(&count)) return TruncatedMeta();
  if (count > max_count) {
    return Status::Error(std::string(what) + " count " + std::to_string(count) +
                         " is implausible");
  }
  if (count > in.remaining() / sizeof(float)) return TruncatedMeta();
  out->resize(count);
  in.ReadBytes(out->data(), count * sizeof(float));
  return Status::Ok();
}

}  // namespace

std::string SerializeStateDict(const std::vector<Tensor>& state) {
  std::ostringstream model;
  io::WritePod(model, static_cast<uint64_t>(state.size()));
  for (const Tensor& t : state) SaveTensor(t, model);
  return model.str();
}

Status ParseStateDict(const std::string& bytes, const std::vector<Tensor>& expected,
                      std::vector<Tensor>* state) {
  // Every field is read only when its bytes are present, so a short or
  // damaged section is kDataLoss instead of an abort.
  io::ByteReader in(bytes);
  uint64_t count = 0;
  if (!in.Read(&count)) {
    return Status::DataLoss("model section is too short to hold its tensor count");
  }
  if (count != expected.size()) {
    return Status::InvalidArgument("model section holds " + std::to_string(count) +
                                   " tensors but the model has " +
                                   std::to_string(expected.size()) + " (architecture mismatch)");
  }
  std::vector<Tensor> loaded(expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const std::string which = "model tensor " + std::to_string(i);
    const Status read = io::ReadTensor(in, &loaded[i]);
    if (!read.ok()) return Status::DataLoss(which + " in the model section: " + read.message());
    if (loaded[i].shape() != expected[i].shape()) {
      return Status::InvalidArgument(which + " has shape " + loaded[i].shape().ToString() +
                                     " but the model expects " + expected[i].shape().ToString() +
                                     " (architecture mismatch)");
    }
  }
  *state = std::move(loaded);
  return Status::Ok();
}

std::string SerializeServeMeta(const ServeMeta& meta) {
  std::ostringstream out;
  io::WritePod(out, kServeMetaVersion);
  io::WritePod(out, meta.version);
  io::WritePod(out, meta.stage);
  io::WritePod(out, meta.step_count);
  return out.str();
}

Status ParseServeMeta(const std::string& bytes, ServeMeta* meta) {
  // Fixed layout: uint32 schema + int64 {version, stage, step_count}.
  constexpr size_t kMetaSize = sizeof(uint32_t) + 3 * sizeof(int64_t);
  if (bytes.size() != kMetaSize) {
    return Status::DataLoss("serve_meta section has unexpected size " +
                            std::to_string(bytes.size()));
  }
  io::ByteReader in(bytes);
  uint32_t schema = 0;
  in.Read(&schema);
  if (schema != kServeMetaVersion) {
    return Status::InvalidArgument("unsupported serve_meta schema version " +
                                   std::to_string(schema));
  }
  in.Read(&meta->version);
  in.Read(&meta->stage);
  in.Read(&meta->step_count);
  return Status::Ok();
}

void UrclTrainer::SetSnapshotSink(SnapshotSink sink, int64_t publish_every_steps) {
  URCL_CHECK_GE(publish_every_steps, 0);
  snapshot_sink_ = std::move(sink);
  publish_every_steps_ = publish_every_steps;
}

void UrclTrainer::PublishSnapshot() {
  if (!snapshot_sink_) return;
  // Chaos fault point `drop_publish`: a stalled publisher — the snapshot is
  // silently swallowed, so serving keeps answering from the version it last
  // admitted. The version counter is not consumed.
  if (fault::FaultInjector::Instance().NextPublishDropped()) return;
  URCL_TRACE_SCOPE("publish_snapshot");
  checkpoint::Container container;
  container.Add("model", SerializeStateDict(model_->StateDict()));
  container.Add("serve_meta",
                SerializeServeMeta({++snapshots_published_, current_stage_, step_count_}));
  obs::RecordFlightEvent(obs::FlightEventType::kSnapshotPublish, snapshots_published_,
                         current_stage_);
  snapshot_sink_(container);
}

void UrclTrainer::EnableCheckpointing(const CheckpointConfig& config) {
  URCL_CHECK(!config.dir.empty()) << "CheckpointConfig.dir must be set";
  URCL_CHECK_GE(config.every_steps, 0);
  URCL_CHECK_GT(config.retention, 0);
  checkpoint_config_ = config;
  checkpoint::ManagerOptions options;
  options.dir = config.dir;
  options.retention = config.retention;
  checkpoint_manager_ = std::make_unique<checkpoint::CheckpointManager>(options);
}

Status UrclTrainer::SaveFullCheckpoint() {
  if (checkpoint_manager_ == nullptr) {
    return Status::Error("checkpointing not enabled (call EnableCheckpointing first)");
  }
  URCL_TRACE_SCOPE("checkpoint");
  const Stopwatch checkpoint_timer;
  checkpoint::Container container;

  // "meta": schema version, config fingerprint, counters, progress cursor.
  {
    std::ostringstream meta;
    io::WritePod(meta, kTrainerStateVersion);
    io::WritePod(meta, config_.seed);
    io::WritePod(meta, step_count_);
    io::WritePod(meta, quarantined_batches_);
    io::WritePod(meta, cursor_.stage);
    io::WritePod(meta, cursor_.epoch);
    io::WritePod(meta, cursor_.offset);
    io::WritePod(meta, static_cast<double>(cursor_.epoch_loss_sum));
    io::WritePod(meta, cursor_.epoch_steps);
    WriteFloatVector(meta, cursor_.epoch_losses);
    WriteFloatVector(meta, loss_history_);
    io::WritePod(meta, static_cast<uint64_t>(cached_selection_.size()));
    for (const int64_t index : cached_selection_) io::WritePod(meta, index);
    container.Add("meta", meta.str());
  }

  // "model": parameter tensors in Parameters() order.
  container.Add("model", SerializeStateDict(model_->StateDict()));

  // "optimizer": Adam step counter + first/second moments.
  {
    std::ostringstream opt;
    optimizer_->SaveState(opt);
    container.Add("optimizer", opt.str());
  }

  // "rng": the trainer's stream (mixup, augmentation picks, samplers).
  container.Add("rng", rng_.SaveState());

  // "buffer": replay memory items + counters + reservoir RNG.
  {
    std::ostringstream buf;
    buffer_.Serialize(buf);
    container.Add("buffer", buf.str());
  }

  const Status saved = checkpoint_manager_->Save(container);
  if (saved.ok()) {
    obs::RecordFlightEvent(obs::FlightEventType::kCheckpointWrite, cursor_.stage, step_count_);
    if (obs::MetricsEnabled()) {
      TrainerMetrics& m = Metrics();
      m.checkpoint_writes.Add(1);
      m.checkpoint_write_seconds.Observe(checkpoint_timer.ElapsedSeconds());
    }
  }
  return saved;
}

Status UrclTrainer::RestoreFromCheckpointDir(std::string* diagnostics) {
  if (checkpoint_manager_ == nullptr) {
    return Status::Error("checkpointing not enabled (call EnableCheckpointing first)");
  }
  checkpoint::Container newest_valid;
  return checkpoint_manager_->LoadNewestValid(
      &newest_valid, diagnostics,
      [this](const checkpoint::Container& container) { return RestoreFrom(container); });
}

Status UrclTrainer::RestoreFrom(const checkpoint::Container& container) {
  const std::string* meta_bytes = container.Find("meta");
  const std::string* model_bytes = container.Find("model");
  const std::string* opt_bytes = container.Find("optimizer");
  const std::string* rng_bytes = container.Find("rng");
  const std::string* buffer_bytes = container.Find("buffer");
  if (meta_bytes == nullptr || model_bytes == nullptr || opt_bytes == nullptr ||
      rng_bytes == nullptr || buffer_bytes == nullptr) {
    return Status::Error("checkpoint is missing a required section "
                         "(need meta/model/optimizer/rng/buffer)");
  }

  // Decode everything into temporaries first; the live trainer is only
  // touched once every section validates.
  io::ByteReader meta(*meta_bytes);
  uint32_t version = 0;
  if (!meta.Read(&version)) return TruncatedMeta();
  if (version != kTrainerStateVersion) {
    return Status::Error("trainer state version " + std::to_string(version) +
                         " unsupported (expected " + std::to_string(kTrainerStateVersion) + ")");
  }
  uint64_t seed = 0;
  if (!meta.Read(&seed)) return TruncatedMeta();
  if (seed != config_.seed) {
    return Status::Error("checkpoint was written with seed " + std::to_string(seed) +
                         " but this trainer is configured with seed " +
                         std::to_string(config_.seed));
  }
  int64_t step_count = 0;
  int64_t quarantined = 0;
  StageCursor cursor;
  if (!meta.Read(&step_count) || !meta.Read(&quarantined) || !meta.Read(&cursor.stage) ||
      !meta.Read(&cursor.epoch) || !meta.Read(&cursor.offset) ||
      !meta.Read(&cursor.epoch_loss_sum) || !meta.Read(&cursor.epoch_steps)) {
    return TruncatedMeta();
  }
  if (step_count < 0 || quarantined < 0 || cursor.stage < 0 || cursor.epoch < 0 ||
      cursor.offset < 0 || cursor.epoch_steps < 0) {
    return Status::Error("checkpoint meta section has negative counters");
  }
  Status st = ReadFloatVector(meta, 1u << 20, "epoch loss", &cursor.epoch_losses);
  if (!st.ok()) return st;
  std::vector<float> loss_history;
  st = ReadFloatVector(meta, 1u << 28, "loss history", &loss_history);
  if (!st.ok()) return st;
  uint64_t selection_count = 0;
  if (!meta.Read(&selection_count)) return TruncatedMeta();
  if (selection_count > static_cast<uint64_t>(config_.buffer_capacity)) {
    return Status::Error("checkpoint RMIR selection cache is larger than the buffer");
  }
  std::vector<int64_t> cached_selection(selection_count);
  if (!meta.ReadBytes(cached_selection.data(), selection_count * sizeof(int64_t))) {
    return TruncatedMeta();
  }

  std::vector<Tensor> state;
  st = ParseStateDict(*model_bytes, model_->StateDict(), &state);
  if (!st.ok()) return st;

  Rng rng(config_.seed);
  if (!rng.LoadState(*rng_bytes)) {
    return Status::DataLoss("rng section failed to parse");
  }

  replay::ReplayBuffer buffer = buffer_;
  st = buffer.Deserialize(*buffer_bytes);
  if (!st.ok()) return st.Annotate("buffer section: ");

  // The last fallible step; it commits the optimizer only on success.
  st = optimizer_->LoadState(*opt_bytes);
  if (!st.ok()) return st.Annotate("optimizer section: ");

  model_->LoadStateDict(state);
  buffer_ = std::move(buffer);
  rng_ = rng;
  step_count_ = step_count;
  quarantined_batches_ = quarantined;
  loss_history_ = std::move(loss_history);
  cached_selection_ = std::move(cached_selection);
  cursor_ = std::move(cursor);
  resume_pending_ = true;
  interrupted_ = false;
  return Status::Ok();
}

Status UrclTrainer::Predict(const PredictRequest& request, PredictResponse* response) const {
  const Variable x(request.inputs, /*requires_grad=*/false);
  Status status = FinishPrediction(request, model_->Forward(x, adjacency_).value(), response);
  if (!status.ok()) return status;
  response->stage = current_stage_;
  response->model_version = snapshots_published_;
  return Status::Ok();
}

}  // namespace core
}  // namespace urcl
