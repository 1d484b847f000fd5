#include "replay/replay_buffer.h"

#include <algorithm>
#include <istream>
#include <map>
#include <ostream>
#include <string>

#include "common/check.h"
#include "obs/metrics.h"
#include "tensor/serialize.h"
#include "tensor/tensor_ops.h"

namespace urcl {
namespace replay {

ReplayBuffer::ReplayBuffer(int64_t capacity, BufferPolicy policy, uint64_t seed)
    : capacity_(capacity), policy_(policy), rng_(seed) {
  URCL_CHECK_GT(capacity, 0);
}

void ReplayBuffer::Add(ReplayItem item) {
  URCL_CHECK_EQ(item.inputs.rank(), 3) << "replay inputs must be [M, N, C]";
  URCL_CHECK_EQ(item.targets.rank(), 3) << "replay targets must be [N_out, N, 1]";
  if (!items_.empty()) {
    URCL_CHECK(item.inputs.shape() == items_.front().inputs.shape())
        << "replay buffer items must share one shape";
    URCL_CHECK(item.targets.shape() == items_.front().targets.shape());
  }
  ++inserted_;
  const int64_t evictions_before = evictions_;
  if (size() < capacity_) {
    items_.push_back(std::move(item));
  } else if (policy_ == BufferPolicy::kFifo) {
    items_.pop_front();
    ++evictions_;
    items_.push_back(std::move(item));
  } else {
    // Reservoir: keep each ever-inserted item with probability capacity/seen.
    const int64_t slot = rng_.UniformInt(0, inserted_ - 1);
    if (slot < capacity_) {
      items_[static_cast<size_t>(slot)] = std::move(item);
      ++evictions_;
    }
  }
  if (obs::MetricsEnabled()) {
    auto& registry = obs::MetricsRegistry::Get();
    registry.GetCounter("urcl.replay.added").Add(1);
    if (evictions_ != evictions_before) registry.GetCounter("urcl.replay.evicted").Add(1);
    registry.GetGauge("urcl.replay.size").Set(static_cast<double>(size()));
  }
}

void ReplayBuffer::Clear() {
  items_.clear();
  evictions_ = 0;
  inserted_ = 0;
}

const ReplayItem& ReplayBuffer::Get(int64_t index) const {
  URCL_CHECK(index >= 0 && index < size()) << "replay index " << index << " out of range";
  return items_[static_cast<size_t>(index)];
}

std::pair<Tensor, Tensor> ReplayBuffer::MakeBatch(const std::vector<int64_t>& indices) const {
  URCL_CHECK(!indices.empty());
  std::vector<Tensor> xs;
  std::vector<Tensor> ys;
  xs.reserve(indices.size());
  ys.reserve(indices.size());
  for (const int64_t index : indices) {
    const ReplayItem& item = Get(index);
    xs.push_back(item.inputs);
    ys.push_back(item.targets);
  }
  return {ops::Stack(xs, 0), ops::Stack(ys, 0)};
}

void ReplayBuffer::ExportComposition(int64_t current_stage) const {
  if (!obs::MetricsEnabled()) return;
  std::map<int64_t, int64_t> per_stage;
  for (const ReplayItem& item : items_) ++per_stage[item.stage];
  auto& registry = obs::MetricsRegistry::Get();
  // Write a gauge for every stage up to the current one (not just the stages
  // present) so a stage whose items were fully evicted reads 0, not its last
  // non-zero value.
  const int64_t top = std::max<int64_t>(
      current_stage, per_stage.empty() ? 0 : per_stage.rbegin()->first);
  for (int64_t stage = 0; stage <= top; ++stage) {
    const auto it = per_stage.find(stage);
    const int64_t count = it == per_stage.end() ? 0 : it->second;
    registry
        .GetGauge(obs::LabeledName("urcl.replay.stage_items",
                                   {{"stage", std::to_string(stage)}}))
        .Set(static_cast<double>(count));
  }
  obs::Histogram& age = registry.GetHistogram(
      "urcl.replay.item_age_stages", {0.5, 1.5, 2.5, 3.5, 4.5, 6.5, 8.5, 12.5, 16.5});
  for (const ReplayItem& item : items_) {
    age.Observe(static_cast<double>(current_stage - item.stage));
  }
}

namespace {
// v1 lacked the per-item stage tag; v2 appends it after time_slot. v1 states
// are still accepted (stage = 0) so old checkpoints restore.
constexpr uint32_t kBufferStateVersion = 2;
constexpr uint32_t kBufferStateVersionNoStage = 1;
}  // namespace

void ReplayBuffer::Serialize(std::ostream& out) const {
  io::WritePod(out, kBufferStateVersion);
  io::WritePod(out, capacity_);
  io::WritePod(out, static_cast<uint32_t>(policy_));
  io::WritePod(out, evictions_);
  io::WritePod(out, inserted_);
  const std::string rng_state = rng_.SaveState();
  io::WritePod(out, static_cast<uint64_t>(rng_state.size()));
  out.write(rng_state.data(), static_cast<std::streamsize>(rng_state.size()));
  io::WritePod(out, static_cast<uint64_t>(items_.size()));
  for (const ReplayItem& item : items_) {
    SaveTensor(item.inputs, out);
    SaveTensor(item.targets, out);
    io::WritePod(out, item.time_slot);
    io::WritePod(out, item.stage);
  }
}

Status ReplayBuffer::Deserialize(std::string_view bytes) {
  io::ByteReader in(bytes);
  const Status truncated = Status::DataLoss("replay buffer state is truncated");
  uint32_t version = 0;
  if (!in.Read(&version)) return truncated;
  if (version != kBufferStateVersion && version != kBufferStateVersionNoStage) {
    return Status::Error("replay buffer state version " + std::to_string(version) +
                         " unsupported (expected " + std::to_string(kBufferStateVersion) + ")");
  }
  int64_t capacity = 0;
  uint32_t policy = 0;
  if (!in.Read(&capacity) || !in.Read(&policy)) return truncated;
  if (capacity != capacity_) {
    return Status::Error("replay buffer state capacity " + std::to_string(capacity) +
                         " does not match configured capacity " + std::to_string(capacity_));
  }
  if (policy != static_cast<uint32_t>(policy_)) {
    return Status::Error("replay buffer state policy " + std::to_string(policy) +
                         " does not match configured policy " +
                         std::to_string(static_cast<uint32_t>(policy_)));
  }
  int64_t evictions = 0;
  int64_t inserted = 0;
  if (!in.Read(&evictions) || !in.Read(&inserted)) return truncated;
  if (evictions < 0 || inserted < 0) {
    return Status::Error("replay buffer state has negative counters");
  }
  uint64_t rng_len = 0;
  if (!in.Read(&rng_len)) return truncated;
  // mt19937_64 text state is ~7.5 KB; anything much larger is corruption.
  if (rng_len == 0 || rng_len > (1u << 20)) {
    return Status::Error("replay buffer RNG state has implausible length " +
                         std::to_string(rng_len));
  }
  std::string rng_state(rng_len, '\0');
  if (!in.ReadBytes(rng_state.data(), rng_len)) return truncated;
  uint64_t count = 0;
  if (!in.Read(&count)) return truncated;
  if (count > static_cast<uint64_t>(capacity_)) {
    return Status::Error("replay buffer state holds " + std::to_string(count) +
                         " items, above capacity " + std::to_string(capacity_));
  }
  std::deque<ReplayItem> items;
  for (uint64_t i = 0; i < count; ++i) {
    ReplayItem item;
    for (Tensor* tensor : {&item.inputs, &item.targets}) {
      const Status read = io::ReadTensor(in, tensor);
      if (!read.ok()) {
        return Status::DataLoss("replay buffer item " + std::to_string(i) + ": " +
                                read.message());
      }
    }
    if (!in.Read(&item.time_slot)) return truncated;
    if (version >= kBufferStateVersion && !in.Read(&item.stage)) return truncated;
    if (item.inputs.rank() != 3 || item.targets.rank() != 3) {
      return Status::Error("replay buffer state item " + std::to_string(i) +
                           " has non rank-3 tensors");
    }
    items.push_back(std::move(item));
  }
  Rng restored(0);
  if (!restored.LoadState(rng_state)) {
    return Status::Error("replay buffer RNG state failed to parse");
  }
  rng_ = std::move(restored);
  items_ = std::move(items);
  evictions_ = evictions;
  inserted_ = inserted;
  return Status::Ok();
}

}  // namespace replay
}  // namespace urcl
