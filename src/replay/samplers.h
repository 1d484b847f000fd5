// Replay sampling strategies: uniform random (the common baseline, used by
// the w/o_RMIR ablation) and the paper's ranking-based maximally interfered
// retrieval (RMIR, Sec. IV-B1).
#ifndef URCL_REPLAY_SAMPLERS_H_
#define URCL_REPLAY_SAMPLERS_H_

#include <vector>

#include "common/rng.h"
#include "replay/replay_buffer.h"

namespace urcl {
namespace replay {

// Uniformly samples min(count, size) distinct buffer indices.
class RandomSampler {
 public:
  std::vector<int64_t> Sample(const ReplayBuffer& buffer, int64_t count, Rng& rng) const;
};

// RMIR selection, decomposed so the model-dependent part (interference
// scores = loss increase under a virtual parameter update) is computed by
// the trainer and passed in:
//   1. take the top-|N| buffer items by interference,
//   2. re-rank those by Pearson correlation with the current observations,
//   3. return the top-|S| most similar.
class RmirSampler {
 public:
  // `candidate_pool` is |N| in the paper: the size of the maximally
  // interfered candidate pool.
  explicit RmirSampler(int64_t candidate_pool);

  // `interference[i]` scores buffer item i; `current_inputs` is the batch of
  // current observations [B, M, N, C] (its mean over B is the reference).
  std::vector<int64_t> Select(const ReplayBuffer& buffer, const Tensor& current_inputs,
                              const std::vector<float>& interference,
                              int64_t sample_count) const;

  // Pearson correlation coefficient between two equal-sized tensors
  // (flattened). Returns 0 for degenerate (constant) inputs.
  static float PearsonCorrelation(const Tensor& a, const Tensor& b);

 private:
  int64_t candidate_pool_;
};

}  // namespace replay
}  // namespace urcl

#endif  // URCL_REPLAY_SAMPLERS_H_
