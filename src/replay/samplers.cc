#include "replay/samplers.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "tensor/tensor_ops.h"

namespace urcl {
namespace replay {

std::vector<int64_t> RandomSampler::Sample(const ReplayBuffer& buffer, int64_t count,
                                           Rng& rng) const {
  URCL_CHECK_GE(count, 0);
  const int64_t k = std::min(count, buffer.size());
  return rng.SampleWithoutReplacement(buffer.size(), k);
}

RmirSampler::RmirSampler(int64_t candidate_pool) : candidate_pool_(candidate_pool) {
  URCL_CHECK_GT(candidate_pool, 0);
}

float RmirSampler::PearsonCorrelation(const Tensor& a, const Tensor& b) {
  URCL_CHECK_EQ(a.NumElements(), b.NumElements())
      << "Pearson correlation requires equal sizes";
  const int64_t n = a.NumElements();
  URCL_CHECK_GT(n, 1);
  const float* pa = a.data();
  const float* pb = b.data();
  double sum_a = 0.0, sum_b = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    sum_a += pa[i];
    sum_b += pb[i];
  }
  const double mean_a = sum_a / n;
  const double mean_b = sum_b / n;
  double cov = 0.0, var_a = 0.0, var_b = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double da = pa[i] - mean_a;
    const double db = pb[i] - mean_b;
    cov += da * db;
    var_a += da * da;
    var_b += db * db;
  }
  if (var_a < 1e-12 || var_b < 1e-12) return 0.0f;
  return static_cast<float>(cov / std::sqrt(var_a * var_b));
}

std::vector<int64_t> RmirSampler::Select(const ReplayBuffer& buffer,
                                         const Tensor& current_inputs,
                                         const std::vector<float>& interference,
                                         int64_t sample_count) const {
  URCL_CHECK_EQ(static_cast<int64_t>(interference.size()), buffer.size())
      << "one interference score per buffer item required";
  URCL_CHECK_GE(sample_count, 0);
  if (buffer.empty() || sample_count == 0) return {};
  URCL_CHECK_EQ(current_inputs.rank(), 4) << "current inputs must be [B, M, N, C]";

  // Step 1: top-|N| most interfered (largest loss increase).
  std::vector<int64_t> order(static_cast<size_t>(buffer.size()));
  std::iota(order.begin(), order.end(), 0);
  const int64_t pool = std::min(candidate_pool_, buffer.size());
  std::partial_sort(order.begin(), order.begin() + pool, order.end(),
                    [&](int64_t lhs, int64_t rhs) {
                      return interference[static_cast<size_t>(lhs)] >
                             interference[static_cast<size_t>(rhs)];
                    });
  order.resize(static_cast<size_t>(pool));

  // Step 2: re-rank candidates by Pearson similarity with the current batch
  // mean (temporal-correlation heuristic of Sec. IV-B1).
  const Tensor reference = ops::Mean(current_inputs, {0});
  std::vector<std::pair<float, int64_t>> scored;
  scored.reserve(order.size());
  for (const int64_t index : order) {
    const float corr = PearsonCorrelation(buffer.Get(index).inputs, reference);
    scored.emplace_back(corr, index);
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& lhs, const auto& rhs) { return lhs.first > rhs.first; });

  // Step 3: top-|S| most similar.
  const int64_t take = std::min<int64_t>(sample_count, static_cast<int64_t>(scored.size()));
  std::vector<int64_t> selected;
  selected.reserve(static_cast<size_t>(take));
  for (int64_t i = 0; i < take; ++i) selected.push_back(scored[static_cast<size_t>(i)].second);
  return selected;
}

}  // namespace replay
}  // namespace urcl
