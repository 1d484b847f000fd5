// URCL: the Unified Replay-based Continuous Learning framework (Sec. IV).
// UrclModel wires the shared STEncoder, STDecoder and STSimSiam; UrclTrainer
// implements Algorithm 1 — per-batch RMIR retrieval from the replay buffer,
// STMixup fusion, spatio-temporal augmentation, the combined
// L_all = L_task + L_ssl objective (Eq. 29), and buffer maintenance.
#ifndef URCL_CORE_URCL_H_
#define URCL_CORE_URCL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "augment/augmentation.h"
#include "checkpoint/manager.h"
#include "common/status.h"
#include "core/backbone.h"
#include "core/forecaster.h"
#include "exec/plan.h"
#include "core/predictor.h"
#include "core/stsimsiam.h"
#include "graph/sensor_network.h"
#include "nn/optimizer.h"
#include "replay/replay_buffer.h"
#include "replay/samplers.h"

namespace urcl {
namespace core {

// GraphCL temperature of the STSimSiam loss (Eq. 15-16).
inline constexpr float kSslTemperature = 0.5f;
// Step size of RMIR's virtual SGD update on the incoming batch (Eq. 3).
inline constexpr float kRmirVirtualLr = 0.05f;
// RMIR rescores the buffer every this many steps and reuses its selection in between.
inline constexpr int64_t kRmirRefreshEvery = 2;

struct UrclConfig {
  BackboneType backbone = BackboneType::kGraphWaveNet;
  BackboneConfig encoder;  // num_nodes / in_channels / input_steps set by caller

  // STDecoder (paper: two layers, 512 hidden).
  int64_t decoder_hidden = 128;
  int64_t output_steps = 1;

  // STSimSiam projector.
  int64_t proj_hidden = 32;
  // Weight of L_ssl in L_all (Eq. 29 uses 1.0 with 100 epochs/set; shorter
  // training budgets need a smaller weight so the contrastive gradient does
  // not swamp the task gradient on the shared encoder).
  float ssl_weight = 1.0f;

  // Optimization (Adam at kLearningRate, gradients clipped to kGradClipNorm).
  int64_t batch_size = 8;
  // Caps the batches per epoch (indices evenly spaced over the stage,
  // preserving temporal order); 0 = use every window.
  int64_t max_batches_per_epoch = 40;

  // Replay (Sec. IV-B). replay_sample_count is |S|; rmir_candidate_pool is
  // |N|; rmir_scan_size items are scored per refresh (the MIR-style
  // subsample that keeps interference scoring affordable).
  int64_t buffer_capacity = 256;
  replay::BufferPolicy buffer_policy = replay::BufferPolicy::kReservoir;
  int64_t replay_sample_count = 4;
  int64_t rmir_scan_size = 16;
  int64_t rmir_candidate_pool = 8;
  float mixup_alpha = 0.5f;

  // Ablation toggles (Sec. V-B3).
  bool enable_mixup = true;         // w/o_STU: concatenate instead of mixup
  bool enable_rmir = true;          // w/o_RMIR: uniform random sampling
  bool enable_augmentation = true;  // w/o_STA: identity views
  bool enable_ssl = true;           // w/o_GCL: task loss only
  bool enable_replay = true;        // plain finetuning when false

  // Executor for steady-state graphs (DESIGN.md §12): kPlan compiles the
  // training step, the RMIR virtual step and the per-item scoring forward
  // into replayed arena programs; kTape runs everything on the autograd
  // tape. The training step's own cache runs in kTape mode when SSL and
  // augmentation are both on (augmented views draw fresh RNG and perturb the
  // adjacency every step, so that graph is not step-invariant); the RMIR
  // families still run compiled.
  exec::ExecutorMode executor = exec::ExecutorMode::kPlan;

  uint64_t seed = 1;

  // Returns a human-readable message per invalid field, including the nested
  // encoder config (prefixed "encoder: "). Empty when the config is usable.
  // Checked at UrclModel construction; call directly for early feedback.
  std::vector<std::string> Validate() const;
};

// The model: the shared encoder -> decoder forecaster (Eq. 17) plus the
// SimSiam head, registered as "simsiam" after "encoder" and "decoder".
class UrclModel : public Forecaster {
 public:
  UrclModel(const UrclConfig& config, Rng& rng);

  StSimSiam& simsiam() { return *simsiam_; }

 private:
  std::unique_ptr<StSimSiam> simsiam_;
};

// The "model" section shared by full checkpoints and serving snapshots:
// tensor count, then each tensor in StateDict() order.
std::string SerializeStateDict(const std::vector<Tensor>& state);
// Reads a "model" section into `state`, checked against `expected` (the
// receiving model's StateDict()): a differing tensor count or any differing
// shape is kInvalidArgument naming the architecture mismatch; a missing or
// short count, or a tensor io::ReadTensor rejects, is kDataLoss.
Status ParseStateDict(const std::string& bytes, const std::vector<Tensor>& expected,
                      std::vector<Tensor>* state);

// The "serve_meta" section of a published snapshot: a schema version, then these.
struct ServeMeta {
  int64_t version = 0;     // monotonically increasing publish count (1-based)
  int64_t stage = -1;      // training stage the weights were captured in
  int64_t step_count = 0;  // optimizer steps taken when the snapshot was cut
};
std::string SerializeServeMeta(const ServeMeta& meta);
// Reads a "serve_meta" section into `meta`: a size other than the layout's is
// kDataLoss, an unknown schema version kInvalidArgument.
Status ParseServeMeta(const std::string& bytes, ServeMeta* meta);

// Crash-safety options for UrclTrainer (see DESIGN.md "Fault-tolerance
// model"). A checkpoint snapshots everything the training loop needs to
// continue bit-for-bit: model parameters, Adam moments + step counter, the
// replay buffer (items, counters, reservoir RNG), the trainer RNG stream, the
// RMIR selection cache and the stage/epoch/batch progress cursor.
struct CheckpointConfig {
  std::string dir;
  // Checkpoint every N optimization steps (at batch boundaries); 0 = only at
  // stage boundaries.
  int64_t every_steps = 0;
  // Rotation depth kept on disk (newest N survive pruning).
  int64_t retention = 3;
};

// Trainer implementing Algorithm 1 over a stream of stages.
class UrclTrainer : public StPredictor {
 public:
  UrclTrainer(const UrclConfig& config, const graph::SensorNetwork& network);

  std::string name() const override { return "URCL"; }

  // One while-loop of Algorithm 1 (lines 4-12) run for `epochs` epochs.
  std::vector<float> TrainStage(const data::StDataset& train, int64_t epochs) override;

  Status Predict(const PredictRequest& request, PredictResponse* response) const override;

  // --- Crash-safe checkpoint/resume ---------------------------------------

  // Turns on rotated full-state checkpointing into `config.dir`. Call before
  // training; RestoreFromCheckpointDir requires it.
  void EnableCheckpointing(const CheckpointConfig& config);

  // Snapshots the complete training state as the next checkpoint in the
  // rotation (atomic write + retention pruning).
  Status SaveFullCheckpoint();

  // Restores the newest valid checkpoint from the configured directory,
  // walking the files newest first. A file is rejected when its container
  // fails its CRCs or any section (meta, model, optimizer, rng, buffer) is
  // short, damaged or mismatched; each rejected file appends a line naming
  // the file and the failing section to *diagnostics (may be nullptr) and the
  // next-newest is tried. On success the trainer resumes exactly where the
  // saved run stopped: the protocol runner skips fully trained stages
  // (ResumeStageIndex) and TrainStage continues mid-stage from the saved
  // epoch/batch cursor, reproducing the uninterrupted run bit-for-bit.
  // Returns the newest file's error (and leaves the trainer untouched) when
  // no checkpoint is valid.
  Status RestoreFromCheckpointDir(std::string* diagnostics = nullptr);

  // --- Weight-snapshot publication (serving hot-swap) ----------------------

  // Receives each published weight snapshot as a checkpoint-format Container
  // with two sections: "model" (the StateDict tensors, same layout as the
  // full checkpoint's model section) and "serve_meta" (schema version,
  // monotonically increasing snapshot version, training stage, step count).
  // The serving layer parses these into immutable in-memory model versions.
  using SnapshotSink = std::function<void(const checkpoint::Container&)>;

  // Publishes at every stage end, plus every `publish_every_steps`
  // optimization steps when > 0. The sink is invoked synchronously on the
  // training thread; it must copy what it keeps.
  void SetSnapshotSink(SnapshotSink sink, int64_t publish_every_steps = 0);

  // Number of snapshots published so far; the version stamp of the newest.
  int64_t snapshots_published() const { return snapshots_published_; }

  // StPredictor crash-safety hooks.
  void BeginStage(int64_t stage_index) override { current_stage_ = stage_index; }
  int64_t ResumeStageIndex() const override { return resume_pending_ ? cursor_.stage : 0; }
  bool TrainingInterrupted() const override { return interrupted_; }

  // Batches skipped because inputs, loss or gradients went non-finite.
  int64_t quarantined_batches() const { return quarantined_batches_; }

  UrclModel& model() { return *model_; }
  // Read-only optimizer view, so tests can compare Adam state (step counter
  // and moments) byte for byte across executor modes.
  const nn::Adam& optimizer() const { return *optimizer_; }

  // Number of compiled plans live across the train/virtual/per-item caches.
  // Zero in tape mode; tests assert it is non-zero after a plan-mode stage so
  // a capture regression cannot silently fall back to the tape everywhere.
  size_t compiled_plan_count() const {
    return train_plans_.num_compiled() + virtual_plans_.num_compiled() +
           per_item_plans_.num_compiled();
  }
  const replay::ReplayBuffer& buffer() const { return buffer_; }
  const UrclConfig& config() const { return config_; }

  // Full training-loss history across all stages (Fig. 8), one entry per
  // optimization step.
  const std::vector<float>& loss_history() const { return loss_history_; }

 private:
  struct ReplayDraw {
    Tensor inputs;
    Tensor targets;
    bool valid = false;
  };

  // Progress cursor serialized into every checkpoint: the next batch to run
  // plus the partial-epoch accumulators needed to reproduce the epoch-mean
  // losses of an uninterrupted run.
  struct StageCursor {
    int64_t stage = 0;   // stage index being trained (next to train if fresh)
    int64_t epoch = 0;   // epoch within the current TrainStage call
    int64_t offset = 0;  // schedule position of the next batch
    double epoch_loss_sum = 0.0;
    int64_t epoch_steps = 0;
    std::vector<float> epoch_losses;  // completed epochs of this stage
  };

  // Restores the full training state from one checkpoint container; on any
  // error the trainer is left untouched.
  Status RestoreFrom(const checkpoint::Container& container);

  // Executes one training step on a batch; returns L_all, or nullopt when
  // the batch was quarantined (non-finite inputs, loss or gradients).
  std::optional<float> TrainStep(const Tensor& inputs, const Tensor& targets);

  // Builds the L_all tape graph for one (already mixed) batch — the forward
  // captured by the compiled executor and replayed on the tape fallback.
  Variable BuildTrainLoss(const Tensor& inputs, const Tensor& targets);

  // RMIR / random retrieval from the buffer (Sec. IV-B1).
  ReplayDraw DrawReplaySamples(const Tensor& current_inputs, const Tensor& current_targets);

  // Per-item MAE losses of buffer items `indices` under current parameters.
  std::vector<float> PerItemLosses(const std::vector<int64_t>& indices);

  // Serializes the current weights + serve_meta and hands the container to
  // the snapshot sink (no-op when no sink is set).
  void PublishSnapshot();

  UrclConfig config_;
  Rng rng_;
  Tensor adjacency_;  // clean adjacency of the sensor network
  const graph::SensorNetwork& network_;
  std::unique_ptr<UrclModel> model_;
  std::unique_ptr<nn::Adam> optimizer_;
  replay::ReplayBuffer buffer_;
  replay::RandomSampler random_sampler_;
  replay::RmirSampler rmir_sampler_;
  std::vector<std::unique_ptr<augment::Augmentation>> augmentations_;
  std::vector<float> loss_history_;
  int64_t step_count_ = 0;
  std::vector<int64_t> cached_selection_;

  // Compiled-executor plan caches, one per graph family, keyed by input
  // shapes (DESIGN.md §12).
  exec::PlanCache train_plans_;
  exec::PlanCache virtual_plans_;
  exec::PlanCache per_item_plans_;

  // Snapshot publication state.
  SnapshotSink snapshot_sink_;
  int64_t publish_every_steps_ = 0;
  int64_t snapshots_published_ = 0;

  // Crash-safety state.
  CheckpointConfig checkpoint_config_;
  std::unique_ptr<checkpoint::CheckpointManager> checkpoint_manager_;
  StageCursor cursor_;
  int64_t current_stage_ = 0;
  bool resume_pending_ = false;   // cursor_ was restored and not yet consumed
  bool interrupted_ = false;      // cooperative kill-point stop
  int64_t quarantined_batches_ = 0;
};

}  // namespace core
}  // namespace urcl

#endif  // URCL_CORE_URCL_H_
