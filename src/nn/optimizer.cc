#include "nn/optimizer.h"

#include <cmath>
#include <cstddef>
#include <ostream>

#include "common/check.h"
#include "obs/metrics.h"
#include "tensor/serialize.h"
#include "tensor/simd.h"

namespace urcl {
namespace nn {
namespace {

// Registry handles for the optimizer's metrics, resolved on first use and
// gated on obs::MetricsEnabled() at every use site.
struct OptimizerMetrics {
  obs::Gauge& grad_norm;
  obs::Counter& clip_events;
  obs::Counter& nonfinite_grad;
  obs::Counter& nonfinite_param;
};

OptimizerMetrics& Metrics() {
  auto& registry = obs::MetricsRegistry::Get();
  static OptimizerMetrics* metrics = new OptimizerMetrics{
      registry.GetGauge("urcl.optimizer.grad_norm"),
      registry.GetCounter("urcl.optimizer.clip_events"),
      registry.GetCounter("urcl.optimizer.nonfinite_grad"),
      registry.GetCounter("urcl.optimizer.nonfinite_param"),
  };
  return *metrics;
}

}  // namespace

Adam::Adam(std::vector<Variable> params, const AdamConfig& config)
    : params_(std::move(params)), config_(config) {
  URCL_CHECK_GT(config_.lr, 0.0f);
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Variable& p : params_) {
    URCL_CHECK(p.IsValid() && p.requires_grad()) << "optimizer got a non-trainable parameter";
    m_.push_back(Tensor::Zeros(p.value().shape()));
    v_.push_back(Tensor::Zeros(p.value().shape()));
  }
}

Adam::Adam(std::vector<Variable> params, float lr, float beta1, float beta2, float epsilon,
           float weight_decay)
    : Adam(std::move(params), AdamConfig{lr, beta1, beta2, epsilon, weight_decay, false}) {}

void Adam::ZeroGrad() {
  for (Variable& p : params_) p.ZeroGrad();
}

float Adam::ClipGradNorm(float max_norm) {
  URCL_CHECK_GT(max_norm, 0.0f);
  double total_sq = 0.0;
  for (const Variable& p : params_) {
    const Tensor g = p.grad();
    const float* pg = g.data();
    for (int64_t i = 0; i < g.NumElements(); ++i) total_sq += double(pg[i]) * double(pg[i]);
  }
  const float norm = static_cast<float>(std::sqrt(total_sq));
  if (obs::MetricsEnabled()) {
    Metrics().grad_norm.Set(norm);
  }
  if (!std::isfinite(norm)) return norm;
  if (norm > max_norm && norm > 0.0f) {
    if (obs::MetricsEnabled()) {
      Metrics().clip_events.Add(1);
    }
    const float scale = max_norm / norm;
    for (Variable& p : params_) {
      Tensor g = p.grad();
      g.MulInPlace(scale);
      // Re-register the scaled gradient.
      p.ZeroGrad();
      p.AccumulateGrad(g);
    }
  }
  return norm;
}

void Adam::Step() {
  last_report_.reset();
  if (config_.check_finite) {
    const int64_t bad = FirstNonFiniteGrad();
    if (bad >= 0) {
      // Skip the whole update: a partial apply would leave the moments and
      // parameters inconsistent across params.
      last_report_ = NonFiniteReport{bad, NonFiniteReport::Kind::kGradient};
      if (obs::MetricsEnabled()) {
        Metrics().nonfinite_grad.Add(1);
      }
      return;
    }
  }
  ++step_count_;
  const float bc1 = 1.0f - std::pow(config_.beta1, static_cast<float>(step_count_));
  const float bc2 = 1.0f - std::pow(config_.beta2, static_cast<float>(step_count_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Variable& p = params_[i];
    const Tensor g = p.grad();
    Tensor value = p.value().Clone();
    float* pv = value.mutable_data();
    float* pm = m_[i].mutable_data();
    float* pvv = v_[i].mutable_data();
    const float* pg = g.data();
    const int64_t n = value.NumElements();
    // Lane-parallel over independent parameters; each lane evaluates the
    // same expression tree as the scalar tail (no reassociation, no FMA), so
    // the update is bitwise identical with or without SIMD.
    const simd::F32x8 vwd = simd::Broadcast(config_.weight_decay);
    const simd::F32x8 vb1 = simd::Broadcast(config_.beta1);
    const simd::F32x8 v1mb1 = simd::Broadcast(1.0f - config_.beta1);
    const simd::F32x8 vb2 = simd::Broadcast(config_.beta2);
    const simd::F32x8 v1mb2 = simd::Broadcast(1.0f - config_.beta2);
    const simd::F32x8 vbc1 = simd::Broadcast(bc1);
    const simd::F32x8 vbc2 = simd::Broadcast(bc2);
    const simd::F32x8 vlr = simd::Broadcast(config_.lr);
    const simd::F32x8 veps = simd::Broadcast(config_.epsilon);
    int64_t j = 0;
    for (; j + simd::kLanes <= n; j += simd::kLanes) {
      const simd::F32x8 grad = simd::Add(simd::LoadU(pg + j), simd::Mul(vwd, simd::LoadU(pv + j)));
      const simd::F32x8 m = simd::Add(simd::Mul(vb1, simd::LoadU(pm + j)), simd::Mul(v1mb1, grad));
      simd::StoreU(pm + j, m);
      const simd::F32x8 v2 = simd::Add(simd::Mul(vb2, simd::LoadU(pvv + j)),
                                       simd::Mul(simd::Mul(v1mb2, grad), grad));
      simd::StoreU(pvv + j, v2);
      const simd::F32x8 m_hat = simd::Div(m, vbc1);
      const simd::F32x8 v_hat = simd::Div(v2, vbc2);
      const simd::F32x8 update =
          simd::Div(simd::Mul(vlr, m_hat), simd::Add(simd::Sqrt(v_hat), veps));
      simd::StoreU(pv + j, simd::Sub(simd::LoadU(pv + j), update));
    }
    for (; j < n; ++j) {
      const float grad = pg[j] + config_.weight_decay * pv[j];
      pm[j] = config_.beta1 * pm[j] + (1.0f - config_.beta1) * grad;
      pvv[j] = config_.beta2 * pvv[j] + (1.0f - config_.beta2) * grad * grad;
      const float m_hat = pm[j] / bc1;
      const float v_hat = pvv[j] / bc2;
      pv[j] -= config_.lr * m_hat / (std::sqrt(v_hat) + config_.epsilon);
    }
    p.SetValue(value);
  }
  if (config_.check_finite) {
    const int64_t bad = FirstNonFiniteParam();
    if (bad >= 0) {
      last_report_ = NonFiniteReport{bad, NonFiniteReport::Kind::kParameter};
      if (obs::MetricsEnabled()) {
        Metrics().nonfinite_param.Add(1);
      }
    }
  }
}

int64_t Adam::FirstNonFiniteGrad() const {
  for (size_t i = 0; i < params_.size(); ++i) {
    if (!params_[i].grad().AllFinite()) return static_cast<int64_t>(i);
  }
  return -1;
}

int64_t Adam::FirstNonFiniteParam() const {
  for (size_t i = 0; i < params_.size(); ++i) {
    if (!params_[i].value().AllFinite()) return static_cast<int64_t>(i);
  }
  return -1;
}

void Adam::SaveState(std::ostream& out) const {
  io::WritePod(out, step_count_);
  io::WritePod(out, static_cast<uint64_t>(m_.size()));
  for (const Tensor& m : m_) SaveTensor(m, out);
  for (const Tensor& v : v_) SaveTensor(v, out);
}

Status Adam::LoadState(std::string_view bytes) {
  io::ByteReader in(bytes);
  int64_t step_count = 0;
  uint64_t count = 0;
  if (!in.Read(&step_count) || !in.Read(&count)) {
    return Status::DataLoss("Adam state is truncated before its moments");
  }
  if (step_count < 0) {
    return Status::Error("Adam state has negative step count " + std::to_string(step_count));
  }
  if (count != params_.size()) {
    return Status::Error("Adam state holds " + std::to_string(count) +
                         " tensors but the optimizer has " + std::to_string(params_.size()) +
                         " parameters");
  }
  // First moments, then second moments, each in parameter order.
  std::vector<Tensor> moments(2 * count);
  for (size_t i = 0; i < moments.size(); ++i) {
    const Status read = io::ReadTensor(in, &moments[i]);
    if (!read.ok()) {
      return Status::DataLoss("Adam moment " + std::to_string(i) + ": " + read.message());
    }
    const Tensor& param = params_[i % count].value();
    if (!(moments[i].shape() == param.shape())) {
      return Status::Error("Adam moment shape mismatch at param " + std::to_string(i % count) +
                           ": " + moments[i].shape().ToString() + " vs " +
                           param.shape().ToString());
    }
  }
  step_count_ = step_count;
  m_.assign(moments.begin(), moments.begin() + static_cast<std::ptrdiff_t>(count));
  v_.assign(moments.begin() + static_cast<std::ptrdiff_t>(count), moments.end());
  return Status::Ok();
}

}  // namespace nn
}  // namespace urcl
