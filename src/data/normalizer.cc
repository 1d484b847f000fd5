#include "data/normalizer.h"

#include <cmath>
#include <limits>

#include "common/check.h"

namespace urcl {
namespace data {
namespace {

// Applies fn(value, channel) over a [..., C] tensor.
template <typename Fn>
Tensor PerChannel(const Tensor& data, int64_t channels, Fn fn) {
  URCL_CHECK_GE(data.rank(), 1);
  URCL_CHECK_EQ(data.dim(-1), channels)
      << "data channel count does not match fitted normalizer";
  Tensor out = data.Clone();
  float* p = out.mutable_data();
  const int64_t n = out.NumElements();
  for (int64_t i = 0; i < n; ++i) p[i] = fn(p[i], i % channels);
  return out;
}

}  // namespace

MinMaxNormalizer MinMaxNormalizer::Fit(const Tensor& series) {
  URCL_CHECK_GE(series.rank(), 1);
  const int64_t channels = series.dim(-1);
  MinMaxNormalizer norm;
  norm.mins_.assign(static_cast<size_t>(channels), std::numeric_limits<float>::infinity());
  norm.maxs_.assign(static_cast<size_t>(channels), -std::numeric_limits<float>::infinity());
  const float* p = series.data();
  // Non-finite cells (sensor dropouts, injected faults) are excluded from the
  // statistics so one bad reading cannot poison the whole scaling.
  for (int64_t i = 0; i < series.NumElements(); ++i) {
    if (!std::isfinite(p[i])) continue;
    const size_t c = static_cast<size_t>(i % channels);
    norm.mins_[c] = std::min(norm.mins_[c], p[i]);
    norm.maxs_[c] = std::max(norm.maxs_[c], p[i]);
  }
  for (size_t c = 0; c < norm.mins_.size(); ++c) {
    if (!std::isfinite(norm.mins_[c]) || !std::isfinite(norm.maxs_[c])) {
      // Every cell in this channel was non-finite; fall back to identity-ish.
      norm.mins_[c] = 0.0f;
      norm.maxs_[c] = 1.0f;
    }
    if (norm.maxs_[c] - norm.mins_[c] < 1e-6f) norm.maxs_[c] = norm.mins_[c] + 1.0f;
  }
  return norm;
}

Tensor MinMaxNormalizer::Transform(const Tensor& data) const {
  return PerChannel(data, num_channels(), [this](float v, int64_t c) {
    const size_t i = static_cast<size_t>(c);
    return (v - mins_[i]) / (maxs_[i] - mins_[i]);
  });
}

Tensor MinMaxNormalizer::InverseTransformChannel(const Tensor& data, int64_t channel) const {
  URCL_CHECK(channel >= 0 && channel < num_channels());
  const float lo = mins_[static_cast<size_t>(channel)];
  const float hi = maxs_[static_cast<size_t>(channel)];
  Tensor out = data.Clone();
  float* p = out.mutable_data();
  for (int64_t i = 0; i < out.NumElements(); ++i) p[i] = p[i] * (hi - lo) + lo;
  return out;
}

}  // namespace data
}  // namespace urcl
