// Feature normalization. The paper normalizes streaming data into [0, 1]
// (Sec. V-A4).
#ifndef URCL_DATA_NORMALIZER_H_
#define URCL_DATA_NORMALIZER_H_

#include <vector>

#include "tensor/tensor.h"

namespace urcl {
namespace data {

// Per-channel min-max scaling to [0, 1]. Channels are the last axis.
class MinMaxNormalizer {
 public:
  // Fits per-channel min/max over all other axes of `series` [..., C].
  static MinMaxNormalizer Fit(const Tensor& series);

  // (x - min_c) / (max_c - min_c), applied per trailing channel.
  Tensor Transform(const Tensor& data) const;

  // Inverse for full multi-channel data.
  Tensor InverseTransform(const Tensor& data) const;

  // Inverse for single-channel data (e.g. predictions of `channel`).
  Tensor InverseTransformChannel(const Tensor& data, int64_t channel) const;

  int64_t num_channels() const { return static_cast<int64_t>(mins_.size()); }
  float min(int64_t channel) const { return mins_.at(static_cast<size_t>(channel)); }
  float max(int64_t channel) const { return maxs_.at(static_cast<size_t>(channel)); }

 private:
  std::vector<float> mins_;
  std::vector<float> maxs_;
};

}  // namespace data
}  // namespace urcl

#endif  // URCL_DATA_NORMALIZER_H_
