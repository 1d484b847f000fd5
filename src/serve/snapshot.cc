#include "serve/snapshot.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "tensor/serialize.h"

namespace urcl {
namespace serve {
namespace {

// Must match kServeMetaVersion in core/urcl.cc (the writer side of the
// snapshot contract). Bump both together when the serve_meta layout changes.
constexpr uint32_t kSupportedServeMetaVersion = 1;

}  // namespace

Status ParseModelSnapshot(const checkpoint::Container& container,
                          const core::UrclConfig& config,
                          std::shared_ptr<const ModelSnapshot>* out) {
  if (out == nullptr) return Status::InvalidArgument("ParseModelSnapshot: null output snapshot");
  const std::vector<std::string> config_errors = config.Validate();
  if (!config_errors.empty()) {
    return Status::InvalidArgument("ParseModelSnapshot: invalid model config: " +
                                   config_errors.front());
  }

  const std::string* meta_bytes = container.Find("serve_meta");
  if (meta_bytes == nullptr) {
    return Status::DataLoss("snapshot container is missing the serve_meta section");
  }
  // Fixed layout: uint32 schema + int64 {version, stage, step_count}.
  constexpr size_t kMetaSize = sizeof(uint32_t) + 3 * sizeof(int64_t);
  if (meta_bytes->size() != kMetaSize) {
    return Status::DataLoss("serve_meta section has unexpected size " +
                            std::to_string(meta_bytes->size()));
  }
  io::ByteReader meta(*meta_bytes);
  uint32_t schema = 0;
  int64_t version = 0;
  int64_t stage = 0;
  int64_t step_count = 0;
  meta.Read(&schema);
  if (schema != kSupportedServeMetaVersion) {
    return Status::InvalidArgument("unsupported serve_meta schema version " +
                                   std::to_string(schema));
  }
  meta.Read(&version);
  meta.Read(&stage);
  meta.Read(&step_count);

  const std::string* model_bytes = container.Find("model");
  if (model_bytes == nullptr) {
    return Status::DataLoss("snapshot container is missing the model section");
  }

  // Materialize the architecture, then overwrite its weights with the
  // published state. The Rng only seeds the throwaway initial parameters.
  Rng init_rng(config.seed);
  auto model = std::make_unique<core::UrclModel>(config, init_rng);

  std::vector<Tensor> state;
  const Status parsed = core::ParseStateDict(*model_bytes, model->StateDict(), &state);
  if (!parsed.ok()) return parsed;
  model->LoadStateDict(state);

  auto snapshot = std::make_shared<ModelSnapshot>();
  snapshot->version = version;
  snapshot->stage = stage;
  snapshot->step_count = step_count;
  snapshot->model = std::move(model);
  *out = std::move(snapshot);
  return Status::Ok();
}

ModelHub::ModelHub(int64_t history_depth) : history_depth_(history_depth) {}

void ModelHub::Publish(std::shared_ptr<const ModelSnapshot> snapshot) {
  MutexLock lock(mu_);
  // Retire-then-install: a reader loading current_ around the store sees
  // either the old or the new version, both fully constructed. The release
  // store pairs with the acquire load in Current() so the snapshot's weights
  // are visible before its pointer is.
  std::shared_ptr<const ModelSnapshot> retired = current_.load(std::memory_order_acquire);
  if (retired != nullptr && history_depth_ > 0) {
    history_.push_back(std::move(retired));
    while (static_cast<int64_t>(history_.size()) > history_depth_) history_.pop_front();
  }
  current_.store(std::move(snapshot), std::memory_order_release);
  swaps_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const ModelSnapshot> ModelHub::RollBack() {
  MutexLock lock(mu_);
  if (history_.empty()) return nullptr;
  std::shared_ptr<const ModelSnapshot> restored = history_.back();
  history_.pop_back();
  // The bad incumbent is dropped on the floor (in-flight queries holding its
  // shared_ptr finish safely; their outputs are quarantined by the caller).
  current_.store(restored, std::memory_order_release);
  rollbacks_.fetch_add(1, std::memory_order_relaxed);
  return restored;
}

std::shared_ptr<const ModelSnapshot> ModelHub::Previous() const {
  MutexLock lock(mu_);
  return history_.empty() ? nullptr : history_.back();
}

int64_t ModelHub::history_size() const {
  MutexLock lock(mu_);
  return static_cast<int64_t>(history_.size());
}

}  // namespace serve
}  // namespace urcl
