// The explicit replay memory B (Sec. IV-B): a bounded FIFO queue of
// previously trained observations (stored pre-mixup, per the paper).
#ifndef URCL_REPLAY_REPLAY_BUFFER_H_
#define URCL_REPLAY_REPLAY_BUFFER_H_

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "tensor/tensor.h"

namespace urcl {
namespace replay {

// One stored observation-groundtruth pair.
struct ReplayItem {
  Tensor inputs;   // [M, N, C]
  Tensor targets;  // [N_out, N, 1]
  int64_t time_slot = 0;  // when it was observed (for diagnostics)
  // Training stage the item was inserted during. Drives the buffer
  // composition telemetry (which stages the memory still represents); 0 for
  // items restored from a pre-stage-tagging (v1) checkpoint.
  int64_t stage = 0;
};

enum class BufferPolicy {
  // The paper's literal description ("we organize the buffer as a queue"):
  // oldest items are evicted on overflow. Note that a FIFO of size K only
  // spans the most recent K training samples, so by the time a new stage is
  // being trained it contains almost no genuinely historical data.
  kFifo,
  // Reservoir sampling (used by the MIR line of replay methods the paper
  // builds on): the buffer holds a uniform subsample of everything ever
  // inserted, so earlier stages stay represented. Default, because it is
  // what makes the replay mechanism preserve historical knowledge.
  kReservoir,
};

// Bounded replay memory, 256 slots by default (Sec. V-A4).
class ReplayBuffer {
 public:
  explicit ReplayBuffer(int64_t capacity = 256,
                        BufferPolicy policy = BufferPolicy::kReservoir,
                        uint64_t seed = 0x5eed);

  void Add(ReplayItem item);
  void Clear();

  int64_t size() const { return static_cast<int64_t>(items_.size()); }
  int64_t capacity() const { return capacity_; }
  bool empty() const { return items_.empty(); }

  const ReplayItem& Get(int64_t index) const;

  // Stacks the selected items into ([K, M, N, C], [K, N_out, N, 1]).
  std::pair<Tensor, Tensor> MakeBatch(const std::vector<int64_t>& indices) const;

  // Exports the buffer's composition to the metrics registry: per-stage item
  // counts as `urcl.replay.stage_items{stage="k"}` gauges and the
  // age-in-stages distribution (current_stage - item.stage) as the
  // `urcl.replay.item_age_stages` histogram. Call once per stage boundary —
  // gauges for stages that dropped out of the buffer are zeroed.
  void ExportComposition(int64_t current_stage) const;

  // Total evictions so far (diagnostics).
  int64_t evictions() const { return evictions_; }

  // Total items ever inserted (diagnostics).
  int64_t inserted() const { return inserted_; }

  BufferPolicy policy() const { return policy_; }

  // Checkpointing: writes the complete buffer state — items, eviction/insert
  // counters and the reservoir RNG position — so a restored buffer continues
  // the eviction stream bit-for-bit.
  void Serialize(std::ostream& out) const;
  // Restores state written by Serialize, from those bytes, into a buffer
  // constructed with the same capacity/policy; returns an error (kDataLoss
  // when the bytes are short or damaged) on any mismatch or implausible field
  // instead of clobbering the live buffer.
  Status Deserialize(std::string_view bytes);

 private:
  int64_t capacity_;
  BufferPolicy policy_;
  Rng rng_;
  std::deque<ReplayItem> items_;
  int64_t evictions_ = 0;
  int64_t inserted_ = 0;
};

}  // namespace replay
}  // namespace urcl

#endif  // URCL_REPLAY_REPLAY_BUFFER_H_
